"""Fast checks of the benchmark itself, on a zoo with n <= 2.

Run from the root of a checkout:

    python3 -m pytest -q bench/selftests.py

The file name keeps these out of the library's own test collection.
"""

from __future__ import annotations

import inspect
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import judge  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = 2


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload: str, trace: bool, seed: int = 3) -> tuple[dict, list[str]]:
    lines: list[str] = []
    result = harness.run(ROOT, workload, seed, 0.0, trace, max_dim=TINY, emit=lines.append)
    return result, lines


@pytest.fixture(scope="module")
def tiny_runs() -> dict:
    return {trace: _run("zoo_solve", trace) for trace in (False, True)}


def test_every_metric_is_reported_with_its_unit(tiny_runs):
    declared = _declared()
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, lines = tiny_runs[trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in declared[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        summary = json.loads(next(x for x in lines if x.startswith("summary: "))[9:])
        assert {"failed_frac", "wrong_frac", "latency_samples"} <= set(summary)
    env = json.loads(next(x for x in tiny_runs[False][1] if x.startswith("env: "))[5:])
    assert {"nproc", "blas", "blas_threads", "python", "numpy", "scipy"} <= set(env)


def test_same_seed_repeats_reports_and_counts(tiny_runs):
    again = _run("zoo_solve", True)[0]["metrics"]
    first = tiny_runs[True][0]["metrics"]
    counted = [n for n in first if n.endswith((".calls", ".members", ".newton_iters", ".tries"))]
    assert counted
    assert {n: first[n]["value"] for n in counted} == {n: again[n]["value"] for n in counted}
    untraced = _run("zoo_solve", False)[0]["metrics"]
    assert untraced["re_members_found"] == tiny_runs[False][0]["metrics"]["re_members_found"]


def test_oracle_flags_a_perturbed_minimal_solution(tmp_path):
    h = harness.Harness(ROOT, "extremes_certify", 5, TINY)
    h.workdir = str(tmp_path)
    h.out_path = str(tmp_path / "report.json")
    system = workloads.zoo(5, TINY)[0]
    job = workloads.Job("extremes", workloads._write_doc(h.workdir, "z.json", system, {}), system)
    code, _, payload = h._run_job(job)
    assert code == 0
    report = json.loads(payload)
    assert judge.judge(job, report).problems == []
    h_min = judge.decode(report["extremes"]["minimal"])
    report["extremes"]["minimal"] = workloads._encode(h_min * (1.0 + 1e-5))
    problems = judge.judge(job, report).problems
    assert any("minimal differs" in p for p in problems)


def test_tracer_rebinds_every_import_and_restores_it():
    tracer = Tracer()
    originals = tracer.targets()
    assert "riccati.membership" in originals.values()
    tracer.install()
    try:
        for name, module in sys.modules.items():
            if name == "riccati_kyp" or name.startswith("riccati_kyp."):
                leaked = [
                    a for a, obj in vars(module).items()
                    if inspect.isfunction(obj) and obj in originals
                ]
                assert leaked == [], (name, leaked)
    finally:
        tracer.uninstall()
    from riccati_kyp import cli, solver

    assert cli.membership in originals and solver.membership in originals


def test_traced_extremes_sees_sampler_tries(tmp_path):
    h = harness.Harness(ROOT, "extremes_certify", 5, TINY)
    h.workdir = str(tmp_path)
    h.out_path = str(tmp_path / "report.json")
    system = workloads.zoo(5, TINY)[0]
    h.jobs = [workloads.Job("extremes", workloads._write_doc(h.workdir, "z.json", system, {}), system)]
    plain = harness.Outcome()
    h.run_pass(plain)
    h.sampling = False
    tracer = Tracer()
    traced = harness.Outcome(digests=dict(plain.digests))
    tracer.install()
    try:
        h.run_pass(traced)
    finally:
        tracer.uninstall()
    assert plain.wrong == 0 and traced.wrong == 0
    assert tracer.edge("solver.sample_ri_members", "riccati.membership") > 0
    assert tracer.edge("cli.main", "solver.minimal_solution") > 0


def test_self_times_add_up_to_the_pass_time(tmp_path):
    h = harness.Harness(ROOT, "membership_check", 4, TINY)
    h.workdir = str(tmp_path)
    h.out_path = str(tmp_path / "report.json")
    h.jobs = workloads.build("membership_check", 4, h.workdir, TINY)
    h.sampling = False
    outcome = harness.Outcome()
    tracer = Tracer()
    tracer.install()
    try:
        h.run_pass(outcome)
    finally:
        tracer.uninstall()
    pass_s = outcome.raw_s
    self_s = sum(stat.self_s for stat in tracer.stats.values())
    assert abs(self_s - pass_s) <= 0.05 * pass_s
    assert tracer.stats["cli.main"].calls == len(h.jobs)
    assert tracer.edge("cli.main", "riccati.membership") == len(h.jobs)


def test_sampler_share_is_taken_over_the_traced_time():
    tracer = Tracer()
    tracer.stats[harness.SAMPLER].total_s = 1.0
    tracer.edges[(harness.SAMPLER, "riccati.membership")] = 10
    assert harness.expectations("extremes_certify", tracer, 1.5)["sampler_holds_most_of_pass"].startswith("ok")
    assert harness.expectations("extremes_certify", tracer, 4.0)["sampler_holds_most_of_pass"].startswith("differs")


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "zoo_solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_oracle_matches_closed_forms():
    for system, _, closed in workloads.worked_examples():
        if system.name in ("scalar_interval", "two_state"):
            assert np.allclose(oracle.dare_minimal(*system.mats), closed["min"])
        for h in closed["re"]:
            assert oracle.equality_status(*system.mats, h) is True
