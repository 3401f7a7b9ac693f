"""CLI tests: document parsing and round-trip, command dispatch, exit codes,
and byte-level report reproducibility."""

import dataclasses
import enum
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import riccati_kyp
from riccati_kyp import (
    CertificateFailed,
    DimensionMismatch,
    ParseError,
    RiccatiKypError,
    SolutionSet,
    SystemRealization,
    as_storage,
    order_solutions,
)
from riccati_kyp import cli as cli_module
from riccati_kyp import solver as solver_module
from riccati_kyp.cli import (
    EXIT_CODES,
    SystemDocument,
    _build_parser,
    document_from_dict,
    main,
    parse_system,
    write_system,
)
from riccati_kyp import pencil as pencil_module
from riccati_kyp import systems as systems_module
from riccati_kyp.linops import _VERDICTS
from conftest import (
    dare_extremes,
    decisions,
    nonnormal_realization,
    random_realization,
    two_state_re_solutions,
    unit_pole_realization,
)
from test_solver import _pairwise_order, _subset_order

GOLDEN_DOCS = Path(__file__).resolve().parent / "golden" / "docs"
TWO_STATE_DOC = str(GOLDEN_DOCS / "two_state.json")


def scalar_interval_doc() -> dict:
    return {
        "name": "scalar-interval",
        "A": [[[-0.125, 0.0]]],
        "B": [[[1.0, 0.0]]],
        "C": [[[0.1875, 0.0]]],
        "D": [[[0.5, 0.0]]],
        "candidates": {
            "Hre": [[[0.046875, 0.0]]],
            "Hmid": [[[0.5, 0.0]]],
            "Hout": [[[0.01, 0.0]]],
        },
    }


def two_state_doc() -> dict:
    a, b = 3.0 / 5.0, 4.0 / 5.0
    enc = lambda m: [[[float(x), 0.0] for x in row] for row in np.atleast_2d(m)]
    return {
        "name": "two-state",
        "A": enc([[0, a], [b, 0]]),
        "B": enc([[0], [a]]),
        "C": enc([[0, b]]),
        "D": enc([[0]]),
        "candidates": {"identity": enc(np.eye(2))},
    }


def coisometry_doc() -> dict:
    return {
        "name": "coisometry",
        "A": [[[0.0, 0.0]]],
        "B": [[[1.0, 0.0], [0.0, 0.0]]],
        "C": [[[1.0, 0.0]]],
        "D": [[[0.0, 0.0], [0.0, 0.0]]],
    }


def delay_doc() -> dict:
    return {
        "name": "delay",
        "A": [[[0.0, 0.0]]],
        "B": [[[1.0, 0.0]]],
        "C": [[[1.0, 0.0]]],
        "D": [[[0.0, 0.0]]],
    }


@pytest.fixture
def scalar_doc_path(tmp_path):
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps(scalar_interval_doc()))
    return str(path)


class TestParsing:
    def test_valid_document(self, scalar_doc_path):
        doc = parse_system(scalar_doc_path)
        assert doc.name == "scalar-interval"
        assert doc.a.shape == (1, 1)
        assert doc.a[0, 0] == -0.125
        assert set(doc.candidates) == {"Hre", "Hmid", "Hout"}
        sigma = doc.realization()
        assert sigma.state_dim == 1

    def test_realization_and_parser_are_built_once(self, scalar_doc_path, monkeypatch):
        doc = parse_system(scalar_doc_path)
        assert doc.realization() is doc.realization()
        assert _build_parser() is _build_parser()
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return SystemRealization(*args, **kwargs)

        monkeypatch.setattr(cli_module, "SystemRealization", counting)
        argv = ["check", "--system", scalar_doc_path, "--candidate", "Hre", "--no-timings"]
        assert main(argv) == 0
        assert len(built) == 1

    def test_empty_matrix_rejected(self):
        raw = scalar_interval_doc()
        raw["A"] = []
        with pytest.raises(ParseError):
            document_from_dict(raw)

    def test_malformed_entry_rejected(self):
        raw = scalar_interval_doc()
        raw["B"] = [[[1.0]]]  # not a [re, im] pair
        with pytest.raises(ParseError):
            document_from_dict(raw)

    def test_missing_matrix_rejected(self):
        raw = scalar_interval_doc()
        del raw["C"]
        with pytest.raises(ParseError):
            document_from_dict(raw)

    def test_inconsistent_rows_rejected(self):
        raw = two_state_doc()
        raw["B"] = [[[0.0, 0.0]]]  # one row, state dimension is two
        with pytest.raises(DimensionMismatch):
            document_from_dict(raw)

    def test_candidate_shape_rejected(self):
        raw = scalar_interval_doc()
        raw["candidates"] = {"bad": [[[1.0, 0.0], [0.0, 0.0]]]}
        with pytest.raises(DimensionMismatch):
            document_from_dict(raw)

    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(60)
        mats = {
            "A": rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
            "B": rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1)),
            "C": rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2)),
            "D": rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1)),
        }
        doc = SystemDocument(
            name="random",
            a=mats["A"],
            b=mats["B"],
            c=mats["C"],
            d=mats["D"],
            candidates={"H": np.eye(2) * np.pi},
        )
        restored = document_from_dict(json.loads(json.dumps(write_system(doc))))
        for key in ("a", "b", "c", "d"):
            assert np.array_equal(getattr(restored, key), getattr(doc, key))
        assert np.array_equal(restored.candidates["H"], doc.candidates["H"])

    def test_encoding_keeps_every_float_bit(self):
        z = np.array([[0.0, complex(-0.0, 1.0)], [complex(np.nan, -np.inf), 5e-324 - 2.5j]])
        per_entry = [[[float(v.real), float(v.imag)] for v in row] for row in z]
        assert json.dumps(cli_module._encode_matrix(z)) == json.dumps(per_entry)
        assert json.dumps(cli_module._encode_matrix(z[0])) == json.dumps(per_entry[:1])


# -- the decoder against the per-entry walk it replaced --------------------------


def _reference_entry(obj, where):
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj)
    ):
        raise ParseError(f"{where}: entry must be a [re, im] pair, got {obj!r}")
    return complex(float(obj[0]), float(obj[1]))


def _reference_matrix(obj, where):
    if not isinstance(obj, list) or not obj:
        raise ParseError(f"{where}: expected a non-empty list of rows")
    rows = []
    width = None
    for i, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise ParseError(f"{where}[{i}]: expected a non-empty row")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"{where}[{i}]: row length {len(row)} differs from {width}")
        rows.append([_reference_entry(e, f"{where}[{i}][{j}]") for j, e in enumerate(row)])
    return np.array(rows, dtype=complex)


def _reference_document(raw, origin="<memory>"):
    """`document_from_dict` as it decoded one entry at a time."""
    if not isinstance(raw, dict):
        raise ParseError(f"{origin}: top level must be an object")
    for key in ("A", "B", "C", "D"):
        if key not in raw:
            raise ParseError(f"{origin}: missing required matrix {key!r}")
    a, b, c, d = (_reference_matrix(raw[key], key) for key in ("A", "B", "C", "D"))
    name = raw.get("name", "system")
    if not isinstance(name, str):
        raise ParseError(f"{origin}: name must be a string")
    candidates = {}
    if "candidates" in raw:
        if not isinstance(raw["candidates"], dict):
            raise ParseError(f"{origin}: candidates must be an object")
        for cname, cobj in raw["candidates"].items():
            mat = _reference_matrix(cobj, f"candidates[{cname!r}]")
            if mat.shape != (a.shape[0], a.shape[0]):
                raise DimensionMismatch(
                    f"candidate {cname!r} has shape {mat.shape}, expected "
                    f"{(a.shape[0], a.shape[0])}"
                )
            candidates[cname] = mat
    doc = SystemDocument(name=name, a=a, b=b, c=c, d=d, candidates=candidates)
    doc.realization()
    return doc


_SCALARS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.just(-0.0),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)


@st.composite
def _documents(draw):
    """A valid document: n, m, p <= 4, 0-5 candidates, list or tuple entries
    of finite ints, floats and np.float64."""
    n, m, p = (draw(st.integers(1, 4)) for _ in range(3))

    def matrix(rows, cols):
        pair = st.tuples(_SCALARS, _SCALARS)
        row = st.lists(st.one_of(pair, pair.map(list)), min_size=cols, max_size=cols)
        return draw(st.lists(row, min_size=rows, max_size=rows))

    raw = {"name": "drawn", "A": matrix(n, n), "B": matrix(n, m),
           "C": matrix(p, n), "D": matrix(p, m)}
    count = draw(st.integers(0, 5))
    if count or draw(st.booleans()):
        raw["candidates"] = {f"H{i}": matrix(n, n) for i in range(count)}
    return raw


_MUTATIONS = (
    "entry", "scalar", "short", "long", "empty_row", "ragged", "tuple_row",
    "not_list", "wrong_shape", "candidates_shape", "huge", "nonfinite",
)


@st.composite
def _malformed(draw):
    """A valid document with one entry, row or matrix broken (or every
    candidate widened to one wrong shape), and the ParseError message that
    names the entry when the break is a number beyond float range or a
    non-finite one."""
    raw = draw(_documents())
    slots = [(raw, key, key) for key in ("A", "B", "C", "D")]
    slots += [
        (raw["candidates"], name, f"candidates[{name!r}]")
        for name in raw.get("candidates", {})
    ]
    holder, key, where = draw(st.sampled_from(slots))
    mat = holder[key]
    i = draw(st.integers(0, len(mat) - 1))
    j = draw(st.integers(0, len(mat[i]) - 1))
    kind = draw(st.sampled_from(_MUTATIONS))
    bad = draw(st.sampled_from([True, False, "1.0", None, {"re": 1.0}]))
    if kind == "entry":
        mat[i][j] = bad
    elif kind == "scalar":
        entry = list(mat[i][j])
        entry[draw(st.integers(0, 1))] = bad
        mat[i][j] = entry
    elif kind == "short":
        mat[i][j] = [mat[i][j][0]]
    elif kind == "long":
        mat[i][j] = [*mat[i][j], 0.0]
    elif kind == "empty_row":
        mat[i] = []
    elif kind == "ragged":
        mat[i] = mat[i][:-1] if len(mat[i]) > 1 else [*mat[i], [0.0, 0.0]]
    elif kind == "tuple_row":
        mat[i] = tuple(mat[i])
    elif kind == "not_list":
        holder[key] = draw(st.sampled_from([tuple(mat), {"rows": mat}, "H", None, 1.0]))
    elif kind == "wrong_shape":
        holder[key] = mat[:-1] if len(mat) > 1 else [*mat, mat[0]]
    elif kind == "candidates_shape":
        # every candidate n x (n + 1): one shape, but not the state's
        cands = raw.get("candidates", {})
        for name in cands:
            cands[name] = [[*row, [0.0, 0.0]] for row in cands[name]]
    elif kind == "huge":
        entry = list(mat[i][j])
        entry[draw(st.integers(0, 1))] = draw(st.sampled_from([10**400, -(10**400)]))
        mat[i][j] = entry
        return raw, f"{where}[{i}][{j}]: entry is outside the float range"
    else:
        entry = list(mat[i][j])
        entry[draw(st.integers(0, 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        mat[i][j] = entry
        return raw, f"{where}[{i}][{j}]: entry is not finite"
    return raw, None


def _outcome(decode, raw):
    try:
        doc = decode(raw)
    except (ParseError, DimensionMismatch, ValueError) as exc:
        return type(exc), str(exc)
    arrays = [doc.a, doc.b, doc.c, doc.d, *doc.candidates.values()]
    return doc.name, list(doc.candidates), [(x.shape, x.dtype, x.tobytes()) for x in arrays]


# no shrink phase: shrinking a failing document can take minutes
NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)


@settings(max_examples=100, deadline=None, phases=NO_SHRINK)
@given(_documents())
def test_decoder_matches_the_walk_bit_for_bit(raw):
    got = _outcome(document_from_dict, raw)
    assert got[0] == "drawn"
    assert got == _outcome(_reference_document, raw)


@settings(max_examples=200, deadline=None, phases=NO_SHRINK)
@given(_malformed())
def test_decoder_refuses_as_the_walk_did(case):
    raw, refusal = case
    got = _outcome(document_from_dict, raw)
    if refusal is not None:
        # the walk let float()'s OverflowError escape and passed non-finite
        # numbers on; both are a ParseError naming the entry now
        if refusal.endswith("outside the float range"):
            with pytest.raises(OverflowError):
                _reference_document(raw)
        assert got == (ParseError, refusal)
    else:
        assert got == _outcome(_reference_document, raw)


# -- the report writer against json.dumps -----------------------------------------

SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 1e-05, 1e16, 5e-324]
_strings = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600'), st.characters()),
    max_size=6,
)
_floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
_arrays = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=3),
    elements=_floats,
)
_payloads = st.recursive(
    st.one_of(_strings, st.integers(), st.booleans(), st.none(), _floats, _arrays),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(_strings, inner, max_size=4)
    ),
    max_leaves=12,
)


def _as_lists(obj):
    """``obj`` with every array replaced by its nested lists."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, list):
        return [_as_lists(item) for item in obj]
    if isinstance(obj, dict):
        return {key: _as_lists(value) for key, value in obj.items()}
    return obj


@settings(max_examples=300, deadline=None)
@given(_payloads)
def test_writer_matches_json_dumps(payload):
    want = json.dumps(_as_lists(payload), indent=2, sort_keys=True)
    assert cli_module._dumps(payload) == want


@pytest.mark.parametrize(
    "payload",
    [
        {},
        [],
        {"a": {}, "b": [[], {}], "c": np.zeros((2, 0, 3)), "d": np.zeros((0, 2))},
        # keys that are not strings, tuples, and float and bool subclasses
        {"i": {10: "ten", 9: [True, None]}, "f": {2.5: (1, 2.0), -0.0: 1}, "n": {None: 0}},
        {"x": [np.float64(0.1), np.float64(-np.inf), (np.zeros(2),)]},
        # arrays that are not float64 are written as their lists
        {"ints": np.arange(3), "flags": np.array([True, False])},
        np.float64(1e16),
        np.array(-0.0),
    ],
    ids=["empty-dict", "empty-list", "empty-nested", "other-keys", "float-subclass",
         "other-dtypes", "scalar", "rank-0"],
)
def test_writer_matches_json_dumps_on_edge_cases(payload):
    want = json.dumps(_as_lists(payload) if isinstance(payload, (dict, list, np.ndarray))
                      else payload, indent=2, sort_keys=True, default=lambda a: a.tolist())
    assert cli_module._dumps(payload) == want


def test_writer_refuses_what_json_dumps_refuses():
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli_module._dumps({"a": [1, {2, 3}]})


@dataclasses.dataclass
class _Inner:
    flag: bool
    label: str
    value: float


@dataclasses.dataclass
class _Outer:
    name: str
    items: list
    inner: _Inner
    empty: dict = dataclasses.field(default_factory=dict)


class _Kind(enum.Enum):
    FIRST = "first"
    SECOND = 2


def _indented(text: str, level: int) -> str:
    return text.replace("\n", "\n" + "  " * level)


@pytest.mark.parametrize("level", [0, 1, 2])
def test_writer_writes_a_dataclass_as_json_dumps_writes_asdict(level):
    inner = _Inner(True, "aé", -0.0)
    outer = _Outer("x", [1, 2.5, None, inner], inner)
    for result in (inner, outer, _Inner(False, "", math.inf)):
        want = json.dumps(dataclasses.asdict(result), indent=2, sort_keys=True)
        assert cli_module._dumps(result, level) == _indented(want, level)
    # inside a payload, and through json.dumps under a key that is not a string
    want = json.dumps({"r": dataclasses.asdict(outer), "s": {1: dataclasses.asdict(inner)}},
                      indent=2, sort_keys=True)
    assert cli_module._dumps({"r": outer, "s": {1: inner}}, level) == _indented(want, level)


@pytest.mark.parametrize("level", [0, 1])
def test_writer_writes_an_enum_as_its_value(level):
    payload = {"a": _Kind.FIRST, "b": [_Kind.SECOND, _Kind.FIRST], "c": {0: _Kind.SECOND}}
    want = json.dumps({"a": "first", "b": [2, "first"], "c": {0: 2}}, indent=2, sort_keys=True)
    assert cli_module._dumps(payload, level) == _indented(want, level)
    assert cli_module._dumps(_Kind.SECOND, level) == "2"


_complex_arrays = hnp.arrays(
    np.complex128,
    hnp.array_shapes(min_dims=2, max_dims=4, min_side=0, max_side=3),
    elements=st.complex_numbers(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=150, deadline=None)
@given(_complex_arrays, st.integers(min_value=0, max_value=2))
def test_writer_writes_a_complex_array_as_json_dumps_writes_its_pairs(z, level):
    # every entry as its [re, im] pair, in place and under a key that is not
    # a string
    pairs = cli_module._encode_matrix(z)
    want = json.dumps({"z": pairs, "k": {3: pairs}}, indent=2, sort_keys=True)
    assert cli_module._dumps({"z": z, "k": {3: z}}, level) == _indented(want, level)
    want = json.dumps(pairs, indent=2, sort_keys=True)
    assert cli_module._dumps(z, level) == _indented(want, level)


@pytest.mark.parametrize("shape", [(0, 2, 2), (2, 0), (1, 0, 3), (3, 2, 0)])
def test_writer_writes_an_empty_complex_stack_as_json_dumps_writes_its_pairs(shape):
    z = np.zeros(shape, dtype=complex)
    want = json.dumps({"members": cli_module._encode_matrix(z)}, indent=2, sort_keys=True)
    assert cli_module._dumps({"members": z}) == want


def _order_dict(size: int, codes: np.ndarray) -> dict:
    """The comparisons block as a dict: one "i,j" key per pair i < j."""
    iu, ju = np.triu_indices(size, 1)
    return {f"{i},{j}": _VERDICTS[c].value for i, j, c in zip(iu, ju, codes)}


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("size", [0, 1, 2, 11, 32, 64])
def test_pair_order_is_written_as_json_dumps_writes_its_dict(size, level):
    # a set not ordered by its selection digits lists its comparisons, which
    # the writer's generic dict path writes ("10,2" sorts before "2,10")
    codes = np.random.default_rng(size).integers(0, 4, size * (size - 1) // 2)
    ordered = SolutionSet(members=[as_storage(np.eye(1))] * size, _order=codes.astype(np.int8))
    block = cli_module._solution_set_payload(ordered)["comparisons"]
    want = json.dumps(_order_dict(size, codes), indent=2, sort_keys=True)
    assert cli_module._dumps(block, level) == want.replace("\n", "\n" + "  " * level)
    want = json.dumps({"comparisons": _order_dict(size, codes)}, indent=2, sort_keys=True)
    assert cli_module._dumps({"comparisons": block}) == want


def _seeded_pencil_doc(tmp_path, n: int) -> str:
    """A document of the n-state, m = p = 2 system of the random_passive
    recipe at norm 0.9, rng seed 5: a complete pencil set of 2**n members."""
    sigma = random_realization(np.random.default_rng(5), n, 2, 2, passive_norm=0.9)
    path = tmp_path / f"pencil_n{n}.json"
    doc = SystemDocument(f"pencil_n{n}", sigma.a, sigma.b, sigma.c, sigma.d)
    path.write_text(json.dumps(write_system(doc)))
    return str(path)


@pytest.mark.parametrize("n", [5, 6])
def test_solve_re_writes_the_bytes_of_json_dumps(n, tmp_path):
    out = tmp_path / "report.json"
    assert main(["solve-re", "--system", _seeded_pencil_doc(tmp_path, n),
                 "--no-timings", "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    report = json.loads(text)
    assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert len(report["solve_re"]["members"]) == 2**n
    _assert_the_lattice_is_the_pairwise_order(report["solve_re"])


def _assert_the_lattice_is_the_pairwise_order(block: dict) -> None:
    """A solve_re block that states the subset order of its selection
    digits, in place of the pairs, stands for the verdicts and extremal
    indices that order_solutions and the pair-by-pair reference give on its
    members."""
    assert block["order"] == "selection_subset" and "comparisons" not in block
    labels = [
        entry["route"].removeprefix("pencil(selection=").removesuffix(")")
        for entry in block["provenance"]
    ]
    pairs = itertools.combinations(range(len(labels)), 2)
    stated = {(i, j): _subset_order(labels[i], labels[j]) for i, j in pairs}
    members = [as_storage(m[..., 0] + 1j * m[..., 1]) for m in np.array(block["members"])]
    ordered = order_solutions(SolutionSet(members=members))
    comparisons, minimal, maximal = _pairwise_order(members)
    assert stated == ordered.comparisons == comparisons
    indices = (block["minimal_index"], block["maximal_index"])
    assert indices == (ordered.minimal_index, ordered.maximal_index) == (minimal, maximal)


def test_the_golden_64_member_document_is_the_seeded_system(tmp_path):
    golden = parse_system(str(GOLDEN_DOCS / "pencil64_n6_m2_p2.json"))
    seeded = parse_system(_seeded_pencil_doc(tmp_path, 6))
    for key in ("a", "b", "c", "d"):
        assert getattr(golden, key).tobytes() == getattr(seeded, key).tobytes()


def test_the_golden_unit_pole_document_is_the_seeded_system():
    golden = parse_system(str(GOLDEN_DOCS / "unit_pole_n3.json"))
    seeded, _ = unit_pole_realization(1)
    for key in ("a", "b", "c", "d"):
        assert getattr(golden, key).tobytes() == getattr(seeded, key).tobytes()


def test_the_golden_nonnormal_document_is_the_seeded_system():
    golden = parse_system(str(GOLDEN_DOCS / "nonnormal_n3.json"))
    seeded = nonnormal_realization(5)
    for key in ("a", "b", "c", "d"):
        assert getattr(golden, key).tobytes() == getattr(seeded, key).tobytes()


@pytest.mark.parametrize("command", ["solve-re", "report"])
def test_a_pole_on_the_circle_is_refused_without_a_singular_stein_solve(command, tmp_path):
    # the lossless route declines the unit pole before solving its singular
    # Stein equation, so no warning is raised on the way to the Schur-class
    # test, which names the pole of the analyze golden (angle 3.0673151949...)
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--system", str(GOLDEN_DOCS / "unit_pole_n3.json"),
                     "--seed", "301", "--no-timings", "--out", str(out)])
    assert code == 18
    message = "transfer-function norm inf > 1 at angle 3.067315; no inequality member can exist"
    want = {"error": {"category": "NotSchurClass", "exit_code": 18, "message": message}}
    assert out.read_text(encoding="utf-8") == json.dumps(want, indent=2, sort_keys=True) + "\n"


def test_each_command_decides_minimality_and_decomposes_a_once(monkeypatch, tmp_path):
    # each realization object decides its minimality and takes its Schur
    # form at most once, however many callers read them
    minimality = decisions(monkeypatch, systems_module.is_minimal)
    schur = decisions(monkeypatch, systems_module._schur_form)
    doc = _seeded_pencil_doc(tmp_path, 3)
    out = str(tmp_path / "report.json")
    runs = [("analyze", doc), ("solve-re", doc), ("report", TWO_STATE_DOC),
            ("extremes", TWO_STATE_DOC)]
    for command, path in runs:
        minimality.clear()
        schur.clear()
        assert main([command, "--system", path, "--no-timings", "--out", out]) == 0
        for calls in (minimality, schur):
            assert len(calls) == len({id(sigma) for sigma in calls}), command
        if path == doc:
            assert len(minimality) == 1, command
            assert len(schur) == (command == "analyze"), command


@pytest.mark.parametrize("name", ["blaschke3", "coisometry"])
def test_report_decides_each_fact_once_per_realization(name, monkeypatch, tmp_path):
    # a report on an inner (blaschke3) or co-inner (coisometry) system reads
    # the system, its adjoint and their facts from every section; each
    # realization builds its adjoint, decides its minimality, takes its
    # Schur form, looks for unit channels, runs ordered QZ and solves its
    # Stein equation once
    spies = [
        decisions(monkeypatch, systems_module.adjoint),
        decisions(monkeypatch, systems_module.is_minimal),
        decisions(monkeypatch, systems_module._schur_form),
        decisions(monkeypatch, solver_module._without_unit_channels),
        decisions(monkeypatch, pencil_module.extremal),
        decisions(monkeypatch, solver_module._inner_solution),
    ]
    out = str(tmp_path / "report.json")
    path = str(GOLDEN_DOCS / f"{name}.json")
    argv = ["report", "--system", path, "--seed", "301", "--no-timings", "--out", out]
    assert main(argv) == 0
    for calls in spies:
        assert calls and len(calls) == len({id(sigma) for sigma in calls})
    assert len(spies[0]) == 1  # the adjoint's adjoint is the system


def _lyapunov_solves(monkeypatch) -> list:
    """Record each ``scipy.linalg.solve_discrete_lyapunov`` call."""
    import scipy.linalg

    real, calls = scipy.linalg.solve_discrete_lyapunov, []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "solve_discrete_lyapunov", spy)
    return calls


@pytest.mark.parametrize(
    "name, solves", [("coisometry", 2), ("blaschke3", 2), ("near_nonpassive", 0),
                     ("nonnormal_n3", 0)],
)
def test_report_solves_each_stein_equation_once(name, solves, monkeypatch, tmp_path):
    # a system and its adjoint solve one Stein equation each, only when
    # ordered QZ gives no candidate: the co-inner system solves its own and
    # its adjoint's (whose inner test the uniqueness certificate and the
    # co-inner test share), the inner one the same two (its adjoint's for
    # the maximal solution), and the two systems with a regular pencil none
    calls = _lyapunov_solves(monkeypatch)
    out = str(tmp_path / "report.json")
    path = str(GOLDEN_DOCS / f"{name}.json")
    main(["report", "--system", path, "--seed", "301", "--no-timings", "--out", out])
    assert len(calls) == solves


@pytest.mark.filterwarnings("error::scipy.linalg.LinAlgWarning")
@pytest.mark.parametrize("command", ["report", "solve-re"])
def test_a_regular_pencil_is_refused_without_a_stein_solve(command, monkeypatch, tmp_path):
    # ||A|| = 1e5 makes both Stein equations of nonnormal_n3 ill-conditioned;
    # its ordered QZ gives a candidate, so the Schur-class test refuses the
    # system before any Stein solve, and no LinAlgWarning is raised
    calls = _lyapunov_solves(monkeypatch)
    out = tmp_path / "report.json"
    code = main([command, "--system", str(GOLDEN_DOCS / "nonnormal_n3.json"),
                 "--seed", "301", "--no-timings", "--out", str(out)])
    assert code == 18 and calls == []
    message = "transfer-function norm 4.166756 > 1 at angle 0.000000; no inequality member can exist"
    want = {"error": {"category": "NotSchurClass", "exit_code": 18, "message": message}}
    assert out.read_text(encoding="utf-8") == json.dumps(want, indent=2, sort_keys=True) + "\n"


def _candidates_doc(tmp_path, candidates: dict) -> str:
    doc = scalar_interval_doc()
    doc["candidates"] = candidates
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("order, code", [(("a", "b"), 6), (("b", "a"), 4)])
def test_report_check_raises_the_first_refused_candidate_in_name_order(order, code, tmp_path):
    # all candidates go through one membership-kernel call, but the first
    # candidate in name order that membership refuses names the error: a
    # NotPD one (-1) before a NotHermitian one (1 + 1j) exits 6, and the
    # other way round 4
    not_pd, not_hermitian = [[[-1.0, 0.0]]], [[[1.0, 1.0]]]
    path = _candidates_doc(tmp_path, dict(zip(order, (not_pd, not_hermitian))))
    out = tmp_path / "report.json"
    assert main(["report", "--system", path, "--no-timings", "--out", str(out)]) == code
    error = json.loads(out.read_text())["error"]
    assert error["category"] == {6: "NotPD", 4: "NotHermitian"}[code]


def test_report_checks_every_candidate_as_check_does(tmp_path):
    # the batched check section holds, for each candidate, the bytes of the
    # check command's payload
    path = _candidates_doc(tmp_path, scalar_interval_doc()["candidates"])
    out = tmp_path / "report.json"
    assert main(["report", "--system", path, "--no-timings", "--out", str(out)]) == 0
    section = json.loads(out.read_text())["check"]
    assert sorted(section) == ["Hmid", "Hout", "Hre"]
    for name, payload in section.items():
        assert main(["check", "--system", path, "--candidate", name,
                     "--no-timings", "--out", str(out)]) == 0
        check = json.loads(out.read_text())["check"]
        assert check.pop("candidate") == name
        assert json.dumps(check, sort_keys=True) == json.dumps(payload, sort_keys=True)


def test_grid_points_are_cached_read_only(two_state_system):
    first = riccati_kyp.circle_profile(two_state_system, grid_steps=64)
    second = riccati_kyp.circle_profile(two_state_system, grid_steps=64)
    assert first.angles is second.angles and not first.angles.flags.writeable
    disc = systems_module._disc_points(48, 0.999)
    assert disc is systems_module._disc_points(48, 0.999) and not disc.flags.writeable


class TestCommands:
    def test_extremes_reports_both_endpoints(self, scalar_doc_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["extremes", "--system", scalar_doc_path, "--out", str(out), "--no-timings"]
        )
        assert code == 0
        report = json.loads(out.read_text())
        h_min = report["extremes"]["minimal"][0][0][0]
        h_max = report["extremes"]["maximal"][0][0][0]
        assert abs(h_min - 3.0 / 64.0) <= 1e-9
        assert abs(h_max - 0.75) <= 1e-9
        assert report["extremes"]["duality"]["re_inversion_equal"] is False

    def test_check_identity_on_two_state(self, tmp_path, capsys):
        path = tmp_path / "two_state.json"
        path.write_text(json.dumps(two_state_doc()))
        code = main(
            ["check", "--system", str(path), "--candidate", "identity", "--no-timings"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["check"]["in_re"] is True
        assert report["check"]["in_ri"] is True

    def test_analyze_coisometry(self, tmp_path, capsys):
        path = tmp_path / "coisometry.json"
        path.write_text(json.dumps(coisometry_doc()))
        code = main(
            ["analyze", "--system", str(path), "--grid", "512", "--no-timings"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["analyze"]["circle"]["coinner"] is True
        assert report["analyze"]["circle"]["inner"] is False
        assert report["analyze"]["uniqueness"]["verdict"] == "unique_singleton"
        assert report["analyze"]["uniqueness"]["reason"] == "coinner_fl0"

    def test_analyze_skips_uniqueness_on_a_non_minimal_system(self, capsys):
        doc = Path(TWO_STATE_DOC).with_name("nonminimal.json")
        code = main(["analyze", "--system", str(doc), "--no-timings"])
        assert code == 0
        analyze = json.loads(capsys.readouterr().out)["analyze"]
        assert analyze["minimality"]["minimal"] is False
        assert analyze["uniqueness"] == {"skipped": "system is not minimal"}

    @pytest.mark.parametrize("a", [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    def test_a_pole_on_the_circle_has_one_angle(self, a, tmp_path, capsys):
        # A = 1, -1, i puts the pole 1/A on the circle: analyze and solve-re
        # both report its angle, in [0, 2 pi)
        doc = {"name": "pole", "A": [[a]], "B": [[[0.5, 0.0]]],
               "C": [[[0.5, 0.0]]], "D": [[[0.0, 0.0]]]}
        path = tmp_path / "pole.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", "--system", str(path), "--no-timings"]) == 0
        analyze = json.loads(capsys.readouterr().out)["analyze"]
        assert analyze["circle"]["error"] == "PoleOnCircle"
        assert analyze["uniqueness"] == {
            "skipped": "transfer function has a pole on the circle"
        }
        angle = analyze["circle"]["angle"]
        assert 0.0 <= angle < 2.0 * np.pi and math.copysign(1.0, angle) == 1.0
        code = main(["solve-re", "--system", str(path), "--no-timings"])
        error = json.loads(capsys.readouterr().out)["error"]
        assert code == EXIT_CODES[riccati_kyp.NotSchurClass]
        assert error["category"] == "NotSchurClass"
        assert f"at angle {angle:.6f};" in error["message"]
        with pytest.raises(riccati_kyp.NotSchurClass) as caught:
            riccati_kyp.solve_re(SystemRealization(complex(*a), 0.5, 0.5, 0.0))
        assert caught.value.angle == angle

    def test_solve_re_two_state(self, tmp_path, capsys):
        path = tmp_path / "two_state.json"
        path.write_text(json.dumps(two_state_doc()))
        code = main(["solve-re", "--system", str(path), "--no-timings"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        members = report["solve_re"]["members"]
        assert len(members) == 4
        found = [np.array([[complex(*e) for e in row] for row in m]) for m in members]
        for target in two_state_re_solutions():
            assert min(np.abs(f - target).max() for f in found) <= 1e-8
        assert report["solve_re"]["minimal_index"] == 0
        assert report["solve_re"]["maximal_index"] == 3
        assert report["solve_re"]["route"] == "pencil"
        assert report["solve_re"]["complete"] is True
        _assert_the_lattice_is_the_pairwise_order(report["solve_re"])

    def test_simulate_with_margins(self, scalar_doc_path, tmp_path, capsys):
        inputs = tmp_path / "inputs.json"
        inputs.write_text(
            json.dumps({"x0": [[1.0, 0.0]], "inputs": [[[1.0, 0.0]], [[0.0, 0.0]]]})
        )
        code = main(
            [
                "simulate",
                "--system",
                scalar_doc_path,
                "--inputs",
                str(inputs),
                "--candidate",
                "Hre",
                "--no-timings",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        states = report["simulate"]["states"]
        assert abs(states[1][0][0] - 7.0 / 8.0) <= 1e-12
        assert abs(states[2][0][0] + 7.0 / 64.0) <= 1e-12
        outputs = report["simulate"]["outputs"]
        assert abs(outputs[0][0][0] - 11.0 / 16.0) <= 1e-12
        assert report["simulate"]["dissipation"]["min_margin"] >= -1e-10

    def test_report_command_covers_candidates(self, scalar_doc_path, capsys):
        code = main(
            ["report", "--system", scalar_doc_path, "--grid", "256", "--no-timings"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["check"]["Hre"]["in_re"] is True
        assert report["check"]["Hmid"]["in_ri"] is True
        assert report["check"]["Hmid"]["in_re"] is False
        assert report["check"]["Hout"]["in_ri"] is False
        assert report["analyze"]["uniqueness"]["verdict"] == "unknown"
        assert "timings" not in report

    def test_config_echoed_verbatim(self, scalar_doc_path, capsys):
        code = main(
            [
                "analyze",
                "--system",
                scalar_doc_path,
                "--grid",
                "128",
                "--tol",
                "1e-8",
                "--seed",
                "9",
                "--no-timings",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"] == {
            "tol": 1e-8,
            "grid": 128,
            "seed": 9,
            "eq_tol": 1e-7,
            "c3_tol": 1e-7,
        }


class TestSharedWork:
    @pytest.mark.parametrize(
        "doc, reason",
        [
            (coisometry_doc(), "coinner_fl0"),
            # the unit delay is inner and its own adjoint realization; both
            # are certified, since nothing looks realizations up
            (delay_doc(), "inner_fr0"),
        ],
        ids=["coinner", "inner"],
    )
    def test_report_certifies_each_minimal_solution_once(
        self, doc, reason, tmp_path, monkeypatch
    ):
        # a report solves the equality sets of the system and its adjoint
        # and certifies the minimal solution of each once; the uniqueness
        # certificate runs neither, and the duality check is the one
        # sampler run (_ri_samples, the work of sample_ri_members)
        calls = dict.fromkeys(("solve_re", "_certified", "_ri_samples"), 0)

        def counted(name):
            real = getattr(solver_module, name)

            def spy(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return spy

        for name in calls:
            monkeypatch.setattr(solver_module, name, counted(name))
        # the CLI's solve_re section calls its own imported name
        monkeypatch.setattr(cli_module, "solve_re", solver_module.solve_re)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        code = main(["report", "--system", str(path), "--no-timings", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["analyze"]["uniqueness"]["reason"] == reason
        assert report["solve_re"]["route"] == "lossless"
        assert calls == {"solve_re": 2, "_certified": 2, "_ri_samples": 1}

    @pytest.mark.parametrize("swap", [False, True], ids=["c-short", "b-short"])
    def test_near_inner_delay_is_not_certified_unique(self, swap, tmp_path, monkeypatch, capsys):
        # T(z) = (1 - 2.5e-8) z has defects 5e-8, inside the grid screen at
        # --tol 1e-8 (10 tol), but H_min = 1 - 5e-8 and H_max = 1 (B and C
        # swapped: 1 and 1 + 5e-8); the Stein identities refuse the screen.
        # Neither ordered QZ nor a minimal-solution certificate runs.
        def refuse(*args, **kwargs):
            raise AssertionError("analyze ran a solver route")

        monkeypatch.setattr(solver_module, "extremal", refuse)
        monkeypatch.setattr(solver_module, "_certified", refuse)
        short = 1.0 - 2.5e-8
        b, c = (short, 1.0) if swap else (1.0, short)
        doc = {**delay_doc(), "B": [[[b, 0.0]]], "C": [[[c, 0.0]]]}
        path = tmp_path / "near_delay.json"
        path.write_text(json.dumps(doc))
        code = main(["analyze", "--system", str(path), "--tol", "1e-8", "--no-timings"])
        analyze = json.loads(capsys.readouterr().out)["analyze"]
        assert code == 0
        assert analyze["circle"]["inner"] and analyze["circle"]["coinner"]
        assert analyze["uniqueness"] == {
            "verdict": "unknown",
            "reason": "none",
            "delta_at_solution": None,
        }


    def test_unstable_allpass_is_not_certified_unique(self, tmp_path, capsys):
        # T(z) = (z - 2) / (1 - 2z) is unimodular on the circle and passes
        # the Stein identities with X = -3, but its pole at z = 1/2 leaves it
        # with no inequality member: the certificate says unknown, not
        # unique_singleton, and the passivity section says why
        doc = {
            "name": "unstable_allpass",
            "A": [[[2.0, 0.0]]],
            "B": [[[1.0, 0.0]]],
            "C": [[[-3.0, 0.0]]],
            "D": [[[-2.0, 0.0]]],
        }
        path = tmp_path / "unstable_allpass.json"
        path.write_text(json.dumps(doc))
        code = main(["analyze", "--system", str(path), "--no-timings"])
        analyze = json.loads(capsys.readouterr().out)["analyze"]
        assert code == 0
        assert analyze["circle"]["inner"] and not analyze["passivity"]["passive"]
        assert analyze["uniqueness"] == {
            "verdict": "unknown",
            "reason": "none",
            "delta_at_solution": None,
        }

# zoo_n2_m1_p2 of the seeded random zoo (block matrix scaled to norm 0.9) at
# seeds 13, 21, 207, 209 and 211: rejection sampling once took samples from
# just outside RI here and raised a false CertificateFailed (exit 19) on the
# maximal side (at CLI seeds 0 and 301: seeds 21, 207 and 209)
FALSE_CERTIFICATE_SYSTEMS = {
    13: (
        [[-0.22326523543268104+0.42552475864401557j, -0.25132626486250453-0.07196840931936838j],
         [-0.2827035383727655-0.17218318652807224j, -0.09546690658108213+0.16360897189045484j]],
        [[0.016194543782473127-0.16076472371679476j], [0.028253967880378966-0.00035222709497417017j]],
        [[0.10173421194806537+0.19736494385863462j, -0.4474767118931635-0.11861889910344141j],
         [-0.3769870818534151-0.23885100070518958j, 0.2539182350562723-0.04344033289457755j]],
        [[-0.2794588834952419+0.3865570272999918j], [-0.07962379499961136+0.030920771671163638j]],
    ),
    21: (
        [[-0.005569077488396107+0.18424867067762682j, -0.12914916782781136-0.023915140491463302j],
         [-0.1453194922948751-0.0390553159533134j, -0.29488955422873325+0.05698697192879642j]],
        [[0.15079863511598954-0.0777318480706058j], [0.40380671219116887-0.11399867744083693j]],
        [[0.05699574982613941+0.19718836983200752j, -0.24026133639606545-0.03399025314530702j],
         [0.3615787100477808+0.21016255820997481j, 0.26320511262931207+0.2984302724836074j]],
        [[0.14205524052978868-0.4788369213076674j], [-0.07956099066131822+0.2690925195873474j]],
    ),
    207: (
        [[-0.15273386487569346+0.1404172099460582j, 0.023765212271829667-0.04736572445716711j],
         [0.13611821745079009+0.36028943585134304j, 0.05945358524560149+0.09941424294952522j]],
        [[-0.10048454664959657-0.07122547111861884j], [-0.018700897430693+0.016157329041280553j]],
        [[0.1265433395292916+0.401089283525372j, 0.3940364732014551-0.051469424739932566j],
         [-0.06359424281439768-0.19815572035898973j, -0.11244367462549827+0.3536356575305138j]],
        [[-0.5291814608796411+0.22719656134699517j], [0.0495788479575758+0.19841315895296296j]],
    ),
    209: (
        [[0.2761582045959349-0.2953549188675157j, 0.03590808981052142-0.051110349295975986j],
         [-0.2249954388039788-0.20055216999340417j, -0.30041837595339027+0.08445880134752386j]],
        [[-0.04268713714354189+0.036679456897580044j], [0.1276602951445649-0.20756592351800734j]],
        [[-0.10901579738115778-0.5276391929830679j, -0.11073735010991878+0.034350238771145805j],
         [-0.2851377740153066+0.007525632097400147j, 0.12017104383707024-0.11238644942329735j]],
        [[-0.0016901954958301617-0.11425448238577997j], [-0.5781362528390319-0.09236420844094567j]],
    ),
    211: (
        [[0.011570986993312526+0.034311172481199j, -0.48625903163152107-0.0707447885604312j],
         [-0.10592587253776746+0.1988325128710467j, -0.38203622042155105+0.09354219270498244j]],
        [[0.024441652089682634-0.21616643428818183j], [-0.11549019437734165-0.16380574669039866j]],
        [[-0.07213282938813599-0.18208425603417708j, -0.08388073790851489+0.27106813361464505j],
         [0.15937573814779393+0.03647927408953728j, 0.09602481857678577-0.4464687511939723j]],
        [[0.009144865093919164+0.09513793452901377j], [-0.03108307028959908+0.44490369016652553j]],
    ),
}


@pytest.mark.parametrize("cli_seed", ["0", "301"])
@pytest.mark.parametrize("seed", sorted(FALSE_CERTIFICATE_SYSTEMS))
def test_extremes_certifies_the_dare_solutions(seed, cli_seed, tmp_path):
    mats = FALSE_CERTIFICATE_SYSTEMS[seed]
    enc = lambda m: [[[z.real, z.imag] for z in row] for row in m]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"name": f"zoo{seed}", **dict(zip("ABCD", map(enc, mats)))}))
    out = tmp_path / "report.json"
    code = main(["extremes", "--system", str(path), "--seed", cli_seed,
                 "--no-timings", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())["extremes"]
    decode = lambda m: np.array([[complex(re, im) for re, im in row] for row in m])
    for got, want in zip(
        (decode(report["minimal"]), decode(report["maximal"])),
        dare_extremes(SystemRealization(*(np.array(m) for m in mats))),
    ):
        assert np.linalg.norm(got - want, 2) <= 1e-10 * np.linalg.norm(want, 2)
    assert report["duality"]["sample_count"] == 50
    assert report["duality"]["failure_count"] == 0


class TestExitCodes:
    def test_missing_candidate_is_parse_error(self, scalar_doc_path, capsys):
        code = main(["check", "--system", scalar_doc_path, "--no-timings"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_CODES[ParseError] == 2
        assert payload["error"]["category"] == "ParseError"
        assert payload["error"]["exit_code"] == code

    def test_unknown_candidate(self, scalar_doc_path, capsys):
        code = main(
            ["check", "--system", scalar_doc_path, "--candidate", "nope", "--no-timings"]
        )
        assert code == EXIT_CODES[ParseError]

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        code = main(["analyze", "--system", str(path), "--no-timings"])
        assert code == EXIT_CODES[ParseError]

    def test_indefinite_candidate_maps_to_not_pd(self, tmp_path, capsys):
        raw = scalar_interval_doc()
        raw["candidates"]["neg"] = [[[-1.0, 0.0]]]
        path = tmp_path / "neg.json"
        path.write_text(json.dumps(raw))
        code = main(
            ["check", "--system", str(path), "--candidate", "neg", "--no-timings"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["category"] == "NotPD"
        from riccati_kyp import NotPD

        assert code == EXIT_CODES[NotPD]

    def test_forced_unstable_selection_exits_19(self, tmp_path, monkeypatch, capsys):
        # two_state's h4 (selection 11, closed-loop radius 1.155) fed to the
        # certificate in place of the stable selection 00
        real = solver_module.extremal

        def largest_selection(sigma):
            _, lam = real(sigma)
            return solver_module.equality_candidates(sigma)[0][-1], lam

        monkeypatch.setattr(solver_module, "extremal", largest_selection)
        path = tmp_path / "two.json"
        path.write_text(json.dumps(two_state_doc()))
        code = main(["extremes", "--system", str(path), "--no-timings"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_CODES[CertificateFailed] == 19
        assert payload == {
            "error": {
                "category": "CertificateFailed",
                "exit_code": 19,
                "message": payload["error"]["message"],
            }
        }
        assert "closed-loop radius 1.154701" in payload["error"]["message"]

    @pytest.mark.parametrize(
        "command, option, value, message",
        [
            ("check", "--tol", "inf", "--tol must be finite and positive, got inf"),
            ("analyze", "--tol", "inf", "--tol must be finite and positive, got inf"),
            ("check", "--tol", "nan", "--tol must be finite and positive, got nan"),
            ("check", "--tol", "-1e-9", "--tol must be finite and positive, got -1e-09"),
            ("check", "--tol", "0", "--tol must be finite and positive, got 0.0"),
            ("analyze", "--grid", "0", "--grid must be at least 1, got 0"),
            ("report", "--grid", "-4", "--grid must be at least 1, got -4"),
            # numpy's generator refused seed + 7 < 0 with a ValueError (exit 1)
            ("report", "--seed", "-8", "--seed must be non-negative, got -8"),
        ],
        ids=[
            "check-inf", "analyze-inf", "nan", "negative", "zero", "grid-0",
            "grid-negative", "seed-negative",
        ],
    )
    def test_invalid_tol_or_grid_is_parse_error(self, command, option, value, message, capsys):
        # with --tol inf, check once put 0.5 I of two_state, outside RI, in
        # RI and RE, and analyze called a system inner beside a defect of 0.89
        argv = [command, "--system", TWO_STATE_DOC, "--candidate", "half", f"{option}={value}"]
        code = main(argv + ["--no-timings"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_CODES[ParseError] == 2
        assert payload == {
            "error": {"category": "ParseError", "exit_code": 2, "message": message}
        }
        # refused before the document is read
        missing = ["check", "--system", "no-such-file.json", f"{option}={value}"]
        assert main(missing) == 2
        assert json.loads(capsys.readouterr().out)["error"]["message"] == message

    def test_smallest_valid_tol_and_grid_run(self, capsys):
        code = main(["analyze", "--system", TWO_STATE_DOC, "--tol", "5e-324", "--grid", "1", "--no-timings"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["config"]["grid"] == 1

    def test_entry_beyond_float_range_is_parse_error(self, tmp_path, capsys):
        raw = scalar_interval_doc()
        raw["B"] = [[[10**400, 0.0]]]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(raw))
        code = main(["check", "--system", str(path), "--candidate", "Hre", "--no-timings"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_CODES[ParseError] == 2
        assert payload["error"]["category"] == "ParseError"
        assert payload["error"]["message"] == "B[0][0]: entry is outside the float range"

    @pytest.mark.parametrize(
        "old, new, where",
        [
            ('"Hre": [[[0.046875', '"Hre": [[[NaN', "candidates['Hre']"),
            ('"Hre": [[[0.046875', '"Hre": [[[1e400', "candidates['Hre']"),
            ('"D": [[[0.5', '"D": [[[1e400', "D"),
        ],
        ids=["nan-candidate", "inf-candidate", "inf-d"],
    )
    def test_non_finite_entry_is_parse_error(self, old, new, where, tmp_path, capsys):
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(scalar_interval_doc()).replace(old, new))
        code = main(["check", "--system", str(path), "--candidate", "Hre", "--no-timings"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_CODES[ParseError] == 2
        assert payload["error"]["message"] == f"{where}[0][0]: entry is not finite"

    def test_non_finite_simulate_input_is_parse_error(self, scalar_doc_path, tmp_path, capsys):
        for where, text in (
            ("inputs[1][0]", '{"inputs": [[[1.0, 0.0]], [[NaN, 0.0]]]}'),
            ("x0[0][0]", '{"x0": [[Infinity, 0.0]], "inputs": [[[1.0, 0.0]]]}'),
        ):
            path = tmp_path / "inputs.json"
            path.write_text(text)
            argv = ["simulate", "--system", scalar_doc_path, "--inputs", str(path)]
            code = main(argv + ["--no-timings"])
            payload = json.loads(capsys.readouterr().out)
            assert code == 2
            assert payload["error"]["message"] == f"{where}: entry is not finite"

    def test_integer_beyond_json_digit_limit_is_parse_error(
        self, scalar_doc_path, tmp_path, capsys
    ):
        # Python's JSON reader refuses integers of more than 4300 digits
        digits = "1" * 5001
        raw = json.dumps(scalar_interval_doc()).replace('"D": [[[0.5', f'"D": [[[{digits}')
        system = tmp_path / "digits.json"
        system.write_text(raw)
        inputs = tmp_path / "inputs.json"
        inputs.write_text(f'{{"inputs": [[[{digits}, 0.0]]]}}')
        for argv, path in (
            (["analyze", "--system", str(system)], system),
            (["simulate", "--system", scalar_doc_path, "--inputs", str(inputs)], inputs),
        ):
            code = main(argv + ["--no-timings"])
            payload = json.loads(capsys.readouterr().out)
            assert code == EXIT_CODES[ParseError] == 2
            message = payload["error"]["message"]
            assert message == (
                f"{path}: unreadable JSON (an integer of 5001 digits exceeds the "
                f"limit of {sys.get_int_max_str_digits()} digits)"
            )
            assert "set_int_max_str_digits" not in message

    def test_exit_codes_are_distinct(self):
        codes = list(EXIT_CODES.values())
        assert len(codes) == len(set(codes))
        assert 0 not in codes and 1 not in codes
        # one code per exported error class, so a deleted class leaves no
        # stale entry
        exported = {getattr(riccati_kyp, name) for name in riccati_kyp.__all__}
        errors = {
            obj for obj in exported if isinstance(obj, type) and issubclass(obj, RiccatiKypError)
        }
        assert set(EXIT_CODES) == errors - {RiccatiKypError}


class TestReproducibility:
    def test_reports_byte_identical_without_timings(self, tmp_path, scalar_doc_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            code = main(
                [
                    "report",
                    "--system",
                    scalar_doc_path,
                    "--grid",
                    "256",
                    "--seed",
                    "3",
                    "--out",
                    str(out),
                    "--no-timings",
                ]
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_timings_present_by_default(self, scalar_doc_path, capsys):
        code = main(["analyze", "--system", scalar_doc_path, "--grid", "128"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert "timings" in report and "analyze" in report["timings"]


def test_importing_the_cli_leaves_scipy_unloaded():
    """scipy.linalg is loaded by the first pencil solve, not by the import
    that every command pays for."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run(
        [
            sys.executable,
            "-c",
            "import riccati_kyp.cli, sys; assert 'scipy.linalg' not in sys.modules",
        ],
        env=env,
        check=True,
    )
