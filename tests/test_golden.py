"""Golden CLI reports: ``report`` on the four worked examples, ``solve-re``,
``extremes`` and ``check`` on seeded small systems, error payloads of
systems that fail different checks first (non-passive, non-minimal, nearly
non-passive), which pin the order of the checks, and ``extremes`` on a
seed-21 zoo system whose maximal certificate once failed on samples that
rejection sampling took from just outside the inequality set, and
``report`` on T(z) = diag(1, 0.5 z), whose constant isometric channel the
solver drops (equality set {1/4}, H_min = 1/4, H_max = 1). All run with
``--seed 301 --no-timings`` and are compared with the reports stored under
``tests/golden``.

Strings, booleans, integers and nulls must match exactly. Floats must match
to a relative 1e-12, with an absolute floor of 1e-14 so that roundoff-level
quantities (residuals, eigenvalues at zero) do not tie the test to one BLAS
or platform.

Each report, and each stored one, must be strict JSON (RFC 8259) that
``orjson.loads`` reads, so a NaN or infinity appears as null. The report's
bytes must also be what ``orjson.dumps(..., option=OPT_INDENT_2 |
OPT_SORT_KEYS)`` writes for the value it holds, a fixed point that pins
the layout of the CLI's writer on any platform.
"""

import json
import math
from pathlib import Path

import orjson
import pytest

from riccati_kyp.cli import main

GOLDEN = Path(__file__).parent / "golden"
SEED = 301
REL_TOL = 1e-12
ABS_TOL = 1e-14

with open(GOLDEN / "manifest.json", encoding="utf-8") as _fh:
    CASES = json.load(_fh)


def _assert_matches(got, want, where: str) -> None:
    assert type(got) is type(want), f"{where}: {got!r} is not like {want!r}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{where}: keys {sorted(got)}"
        for key in want:
            _assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for idx, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{where}[{idx}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL), (
            f"{where}: {got!r} != {want!r}"
        )
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("case", CASES, ids=[c["report"][:-5] for c in CASES])
def test_report_matches_golden(case, tmp_path):
    out = tmp_path / "report.json"
    argv = [case["command"], "--system", str(GOLDEN / "docs" / case["doc"])]
    if case["candidate"]:
        argv += ["--candidate", case["candidate"]]
    code = main(argv + ["--seed", str(SEED), "--no-timings", "--out", str(out)])
    data = out.read_bytes()
    got = orjson.loads(data)
    assert data == orjson.dumps(got, option=orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS) + b"\n"
    want = orjson.loads((GOLDEN / case["report"]).read_bytes())
    assert code == want.get("error", {}).get("exit_code", 0)
    _assert_matches(got, want, "$")
