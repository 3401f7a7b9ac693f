"""Judge one CLI report against the oracle.

``judge(job, report)`` returns a Verdict: the reasons the report is wrong
(empty when it is right), how many equality members it returned that the
oracle verified, how many answers the oracle could not decide, and the
duality samples it delivered and was asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import oracle
from workloads import Job

ABS_TOL = 1e-9
# the CLI's default --tol; inner/co-inner and uniqueness use 10x this
CLI_TOL = 1e-9


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    re_members: int = 0
    undecided: int = 0
    missed: int = 0
    duality_returned: int = 0
    duality_requested: int = 0


def decode(obj) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in obj], dtype=complex)


def _close(x: float, y: float, rel: float = 1e-6) -> bool:
    return abs(x - y) <= ABS_TOL + rel * abs(y)


def _members(v: Verdict, system, mats: list[np.ndarray], what: str) -> None:
    for i, h in enumerate(mats):
        status = oracle.equality_status(*system.mats, h)
        if status:
            v.re_members += 1
        elif status is None:
            v.undecided += 1
        else:
            v.problems.append(f"{what} member {i} fails the equality check")


def _analyze(v: Verdict, job: Job, rep: dict) -> None:
    a, b, c, d = job.system.mats
    minimal = oracle.kalman_minimal(a, b, c)
    if minimal is not None and rep["minimality"]["minimal"] != minimal:
        v.problems.append(f"minimality says {rep['minimality']['minimal']}")
    norm = oracle.system_norm(a, b, c, d)
    pas = rep["passivity"]
    if not _close(pas["system_norm"], norm) or pas["passive"] != (norm <= 1.0 + 1e-10):
        v.problems.append(f"passivity {pas} against norm {norm:.12g}")
    if not 0.0 < rep["schur_margin"]["value"] <= 1.0 + 1e-9:
        v.problems.append(f"schur margin {rep['schur_margin']['value']} outside (0, 1]")
    circle = rep["circle"]
    right, left = oracle.circle_defects(a, b, c, d, circle["grid_steps"])
    if not (_close(circle["max_defect_right"], right) and _close(circle["max_defect_left"], left)):
        v.problems.append(f"circle defects {circle} against {right:.12g}, {left:.12g}")
    inner_tol = 10.0 * CLI_TOL
    inner, coinner = right <= inner_tol, left <= inner_tol
    if circle["inner"] != inner or circle["coinner"] != coinner:
        v.problems.append(f"inner/co-inner {circle['inner']}/{circle['coinner']}")
    expected = job.closed.get("uniqueness")
    if expected is None:
        expected = "unique_singleton" if inner or coinner else "unknown"
    if rep["uniqueness"].get("verdict") != expected:
        v.problems.append(f"uniqueness {rep['uniqueness']} expected {expected}")


def _solve_re(v: Verdict, job: Job, rep: dict) -> None:
    """Every returned member must be an equality member (and, for a worked
    example, one of its closed-form solutions). solve-re does not claim a
    complete set, so a known solution it misses is counted, and lowers
    re_members_found, rather than judged wrong; the flags it sets on the
    zoo must point at the DARE solutions when it found them."""
    members = [decode(m) for m in rep["members"]]
    _members(v, job.system, members, "solve-re")
    if job.closed:
        known = [np.atleast_2d(np.asarray(h, dtype=complex)) for h in job.closed["re"]]
        for i, h in enumerate(members):
            if not any(oracle.rel_err(h, ref) <= oracle.MATCH_TOL for ref in known):
                v.problems.append(f"solve-re member {i} is not a closed-form solution")
        for ref in known:
            if not any(oracle.rel_err(h, ref) <= oracle.MATCH_TOL for h in members):
                v.missed += 1
        return
    for key, ref in (
        ("minimal_index", oracle.dare_minimal(*job.system.mats)),
        ("maximal_index", oracle.dare_maximal(*job.system.mats)),
    ):
        hits = [i for i, h in enumerate(members) if oracle.rel_err(h, ref) <= oracle.MATCH_TOL]
        if not hits:
            v.missed += 1
        elif rep[key] not in hits:
            v.problems.append(f"solve-re {key}={rep[key]} does not point at the DARE solution")


def _extremes(v: Verdict, job: Job, rep: dict) -> None:
    system = job.system
    h_min, h_max = decode(rep["minimal"]), decode(rep["maximal"])
    if job.closed:
        ref_min, ref_max = job.closed["min"], job.closed["max"]
    else:
        ref_min, ref_max = oracle.dare_minimal(*system.mats), oracle.dare_maximal(*system.mats)
    for label, got, ref in (("minimal", h_min, ref_min), ("maximal", h_max, ref_max)):
        err = oracle.rel_err(got, np.atleast_2d(np.asarray(ref, dtype=complex)))
        if err > oracle.MATCH_TOL:
            v.problems.append(f"{label} differs from the reference by {err:.3e}")
        elif oracle.equality_status(*system.mats, got):
            v.re_members += 1
    dual = rep["duality"]
    _members(v, system, [decode(m) for m in dual["re_members"]], "duality")
    if dual["failure_count"] != 0 or not all(dual["samples_ok"]):
        v.problems.append(f"duality reports {dual['failure_count']} failed inversions")
    v.duality_returned += dual["sample_count"]


def _check(v: Verdict, name: str, got: dict, expected: dict) -> None:
    for key in ("in_ri", "in_re", "in_ri_circ"):
        if key not in expected:
            v.undecided += 1
        elif got[key] != expected[key]:
            v.problems.append(f"candidate {name}: {key}={got[key]}, expected {expected[key]}")
    if got["in_re"] and expected.get("in_re"):
        v.re_members += 1


def _simulate(v: Verdict, job: Job, rep: dict) -> None:
    x0, u = job.sim
    states, outputs = oracle.trajectory(*job.system.mats, x0, u)
    if oracle.rel_err(decode(rep["states"]), states) > 1e-10 or oracle.rel_err(
        decode(rep["outputs"]), outputs
    ) > 1e-10:
        v.problems.append("simulated trajectory differs from the recursion")
    h = job.closed["candidates"][job.candidate]
    margins = oracle.dissipation_margins(states, u, outputs, h)
    got = np.array(rep["dissipation"]["margins"])
    if got.shape != margins.shape or np.abs(got - margins).max() > 1e-9 * max(1.0, np.abs(margins).max()):
        v.problems.append("dissipation margins differ from the recursion")
    if rep["dissipation"]["min_margin"] < -1e-9:
        v.problems.append(f"storage {job.candidate} dissipates: {rep['dissipation']['min_margin']}")


def judge(job: Job, report: dict) -> Verdict:
    v = Verdict()
    if job.command in ("extremes", "report"):
        v.duality_requested = report["config"]["solver"]["duality_samples"]
    if job.command in ("analyze", "report"):
        _analyze(v, job, report["analyze"])
    if job.command in ("solve-re", "report"):
        _solve_re(v, job, report["solve_re"])
    if job.command in ("extremes", "report"):
        _extremes(v, job, report["extremes"])
    if job.command == "check":
        got = report["check"]
        if got["candidate"] != job.candidate:
            v.problems.append(f"check answered for {got['candidate']!r}")
        # near-boundary candidates only have to come back without an error
        if job.tag != "near_boundary":
            member = job.tag in ("equality", "interior")
            _check(v, job.candidate, got,
                   oracle.expected_verdict(*job.system.mats, job.matrix, member))
    if job.command == "report":
        for name, matrix in job.closed["candidates"].items():
            expected = {**oracle.expected_verdict(*job.system.mats, matrix),
                        **job.closed["verdicts"].get(name, {})}
            _check(v, name, report["check"][name], expected)
        _simulate(v, job, report["simulate"])
    return v
