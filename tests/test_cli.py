"""CLI tests: document parsing and round-trip, command dispatch, exit codes,
and byte-level report reproducibility."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riccati_kyp
from riccati_kyp import (
    CertificateFailed,
    DimensionMismatch,
    ParseError,
    RiccatiKypError,
    SystemRealization,
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
from conftest import dare_extremes, two_state_re_solutions


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


@settings(max_examples=100, deadline=None)
@given(_documents())
def test_decoder_matches_the_walk_bit_for_bit(raw):
    got = _outcome(document_from_dict, raw)
    assert got[0] == "drawn"
    assert got == _outcome(_reference_document, raw)


@settings(max_examples=200, deadline=None)
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
        "doc, reason, realizations",
        [
            (coisometry_doc(), "coinner_fl0", 2),
            # the unit delay is inner and its own adjoint realization
            (delay_doc(), "inner_fr0", 1),
        ],
        ids=["coinner", "inner"],
    )
    def test_report_certifies_each_minimal_solution_once(
        self, doc, reason, realizations, tmp_path, monkeypatch
    ):
        # the uniqueness certificate and the extremes section share one
        # certified minimal solution per realization (system and adjoint);
        # the certificates are deterministic, so the duality check is the
        # one sampler run
        sampler_calls = []
        certified = []
        real_sampler = solver_module.sample_ri_members
        real_certified = solver_module._certified_minimal

        def sampler(*args, **kwargs):
            sampler_calls.append(args[0])
            return real_sampler(*args, **kwargs)

        def certify(sigma, config):
            certified.append(repr([getattr(sigma, x).tolist() for x in "abcd"]))
            return real_certified(sigma, config)

        monkeypatch.setattr(solver_module, "sample_ri_members", sampler)
        monkeypatch.setattr(solver_module, "_certified_minimal", certify)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        code = main(["report", "--system", str(path), "--no-timings", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["analyze"]["uniqueness"]["reason"] == reason
        assert report["solve_re"]["route"] == "lossless"
        assert len(sampler_calls) == 1
        assert len(certified) == len(set(certified)) == realizations


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
        real = solver_module.equality_candidates

        def reversed_selections(sigma):
            stack, labels = real(sigma)
            return stack[::-1], labels[::-1]

        monkeypatch.setattr(solver_module, "equality_candidates", reversed_selections)
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
