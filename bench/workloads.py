"""Seeded inputs for the three workloads: system documents plus the jobs
that run the CLI on them, each job carrying what the oracle needs.

A pass is the fixed, ordered list of jobs a workload runs; the harness
repeats whole passes, so every metric is taken over the same mix of jobs
whatever the speed of the program.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

import oracle

COMBOS = ((1, 1), (1, 2), (2, 1), (2, 2))
ZOO_NORM = 0.9
# extremes on n >= 3 takes 15-26 s per job, and how many duality samples it
# fills varies with the seed (24-50 of 50 at n = 3), so the extremes workload
# keeps the zoo part to n <= 2 and takes its heavy traffic from the worked
# examples, whose systems do not depend on the seed. Two n = 2 systems keep
# the median job inside the 4-6 s jobs when one of them fails.
EXTREMES_ZOO = ((1, 1, 1), (2, 1, 2), (2, 2, 1))
SIM_STEPS = 24
# membership_check document layouts, cycled over the zoo: one candidate per
# document, all candidates in one document, or padded with this many extra
# random candidates so that parse cost shows
FILLER_CANDIDATES = 24
# a run makes round(--seconds / this) passes, at least one. The values are
# fixed, not measured, so a faster program runs the same passes; at 20 s
# they give 3 passes of zoo_solve, 1 of extremes_certify and 13 of
# membership_check, 20-45 s of wall time each on a 2-core 2.1 GHz Xeon VM
NOMINAL_PASS_S = {"zoo_solve": 7.0, "extremes_certify": 38.0, "membership_check": 1.5}


@dataclass
class System:
    name: str
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    @property
    def mats(self):
        return self.a, self.b, self.c, self.d


@dataclass
class Job:
    """One CLI command on one document, plus the reference data to judge it."""

    command: str
    doc: str
    system: System
    candidate: str | None = None
    inputs: str | None = None
    # membership_check: candidate matrix and its class; worked examples: the
    # closed forms (see ``worked_examples``)
    matrix: np.ndarray | None = None
    tag: str = ""
    closed: dict = field(default_factory=dict)
    sim: tuple | None = None

    def argv(self, workdir: str, seed: int, out: str) -> list[str]:
        args = [self.command, "--system", os.path.join(workdir, self.doc)]
        if self.candidate:
            args += ["--candidate", self.candidate]
        if self.inputs:
            args += ["--inputs", os.path.join(workdir, self.inputs)]
        return args + ["--seed", str(seed), "--no-timings", "--out", out]


def _encode(mat) -> list:
    mat = np.atleast_2d(np.asarray(mat, dtype=complex))
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def _write_doc(workdir: str, fname: str, system: System, candidates: dict) -> str:
    doc = {"name": system.name}
    for key, mat in zip("ABCD", system.mats):
        doc[key] = _encode(mat)
    if candidates:
        doc["candidates"] = {k: _encode(v) for k, v in candidates.items()}
    with open(os.path.join(workdir, fname), "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return fname


def random_passive(rng: np.random.Generator, n: int, m: int, p: int, name: str) -> System:
    """Complex Gaussian realization with its block matrix scaled to norm 0.9."""
    mats = [
        (rng.standard_normal(s) + 1j * rng.standard_normal(s)) / np.sqrt(2.0 * n)
        for s in ((n, n), (n, m), (p, n), (p, m))
    ]
    factor = ZOO_NORM / oracle.system_norm(*mats)
    return System(name, *(factor * x for x in mats))


def zoo(seed: int, max_dim: int = 6) -> list[System]:
    """One strictly passive system for each n = 1..max_dim and (m, p) in
    {1,2}^2: 24 systems at the default size."""
    rng = np.random.default_rng([seed, 0])
    return [
        random_passive(rng, n, m, p, f"zoo_n{n}_m{m}_p{p}")
        for n in range(1, max_dim + 1)
        for m, p in COMBOS
    ]


def _random_pd(rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    """Random positive definite matrix with norm in [0.3, 3] times ``scale``."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    pd = g @ g.conj().T / n + 0.1 * np.eye(n)
    return oracle.herm(pd * (rng.uniform(0.3, 3.0) * scale / np.linalg.norm(pd, 2)))


def _random_herm_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    g = oracle.herm(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return g / np.linalg.norm(g, 2)


def _blaschke3() -> System:
    """Degree-3 allpass cascade with a unitary block matrix (inner)."""
    a = b = c = d = None
    for zero in (0.5, -0.3 + 0.4j, 0.2j):
        r = np.sqrt(1.0 - abs(zero) ** 2)
        sa, sb, sc, sd = (np.array([[v]], dtype=complex) for v in (np.conj(zero), r, r, -zero))
        if a is None:
            a, b, c, d = sa, sb, sc, sd
            continue
        n1 = a.shape[0]
        a = np.block([[a, np.zeros((n1, 1))], [sb @ c, sa]])
        b = np.vstack([b, sb @ d])
        c = np.hstack([sd @ c, sc])
        d = sd @ d
    return System("blaschke3", a, b, c, d)


def worked_examples() -> list[tuple[System, dict, dict]]:
    """(system, candidates, closed forms) for the four worked examples.

    Closed forms: the equality set, H_min, H_max, the uniqueness verdict and
    the known membership verdicts of named candidates.
    """
    ta, tb = 3.0 / 5.0, 4.0 / 5.0
    off = (tb - ta) * np.sqrt(tb / ta)
    two_re = [
        np.eye(2),
        (1.0 / ta**2) * np.array([[(1 - ta * tb) * (tb / ta), off], [off, 1 - ta * tb]]),
        (1.0 / ta**2) * np.array([[(1 - ta * tb) * (tb / ta), -off], [-off, 1 - ta * tb]]),
        np.diag([256.0 / 81.0, 16.0 / 9.0]),
    ]
    yes = {"in_ri": True, "in_re": True, "in_ri_circ": True}
    interior = {"in_ri": True, "in_re": False, "in_ri_circ": True}
    out = {"in_ri": False, "in_re": False, "in_ri_circ": False}
    examples = []

    interval = System("scalar_interval", *(np.array([[v]], dtype=complex) for v in (-0.125, 1.0, 0.1875, 0.5)))
    examples.append((
        interval,
        {"hmin": [[3 / 64]], "hmax": [[3 / 4]], "mid": [[0.375]], "low": [[0.02]]},
        {"re": [np.array([[3 / 64]])], "min": [[3 / 64]], "max": [[3 / 4]],
         "uniqueness": "unknown", "sim_candidate": "hmin",
         "verdicts": {"hmin": yes, "hmax": interior, "mid": interior, "low": out}},
    ))

    two = System("two_state", np.array([[0, ta], [tb, 0]], dtype=complex),
                 np.array([[0], [ta]], dtype=complex), np.array([[0, tb]], dtype=complex),
                 np.zeros((1, 1), dtype=complex))
    examples.append((
        two,
        {"h1": two_re[0], "h2": two_re[1], "h3": two_re[2], "h4": two_re[3],
         "half": 0.5 * np.eye(2), "mid": 0.5 * (two_re[0] + two_re[3])},
        {"re": two_re, "min": two_re[0], "max": two_re[3], "uniqueness": "unknown",
         "sim_candidate": "h1",
         "verdicts": {"h1": yes, "h2": yes, "h3": yes, "h4": yes, "half": out}},
    ))

    coiso = System("coisometry", np.zeros((1, 1), dtype=complex), np.array([[1.0, 0.0]], dtype=complex),
                   np.ones((1, 1), dtype=complex), np.zeros((1, 2), dtype=complex))
    examples.append((
        coiso,
        {"h": [[1.0]], "big": [[1.5]], "small": [[0.5]]},
        {"re": [np.eye(1)], "min": [[1.0]], "max": [[1.0]], "uniqueness": "unique_singleton",
         "sim_candidate": "h", "verdicts": {"h": yes, "big": out, "small": out}},
    ))

    blaschke = _blaschke3()
    examples.append((
        blaschke,
        {"id": np.eye(3), "scaled": 1.1 * np.eye(3), "half": 0.5 * np.eye(3)},
        {"re": [np.eye(3)], "min": np.eye(3), "max": np.eye(3), "uniqueness": "unique_singleton",
         "sim_candidate": "id", "verdicts": {"id": yes, "scaled": out, "half": out}},
    ))
    return examples


def _zoo_solve(seed: int, workdir: str, max_dim: int) -> list[Job]:
    jobs = []
    for system in zoo(seed, max_dim):
        doc = _write_doc(workdir, system.name + ".json", system, {})
        jobs += [Job("solve-re", doc, system), Job("analyze", doc, system)]
    return jobs


def _extremes_certify(seed: int, workdir: str, max_dim: int) -> list[Job]:
    rng = np.random.default_rng([seed, 2])
    jobs = []
    for system, candidates, closed in worked_examples():
        cands = {k: np.asarray(v, dtype=complex) for k, v in candidates.items()}
        doc = _write_doc(workdir, system.name + ".json", system, cands)
        n, m = system.b.shape
        x0 = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
        u = (rng.standard_normal((SIM_STEPS, m)) + 1j * rng.standard_normal((SIM_STEPS, m))) / np.sqrt(2.0)
        inputs = system.name + ".inputs.json"
        with open(os.path.join(workdir, inputs), "w", encoding="utf-8") as fh:
            json.dump({"x0": _encode(x0[None, :])[0], "inputs": _encode(u)}, fh)
        jobs.append(Job("report", doc, system, candidate=closed["sim_candidate"],
                        inputs=inputs, closed={**closed, "candidates": cands}, sim=(x0, u)))
    for system in zoo(seed, max_dim):
        if (system.a.shape[0], system.b.shape[1], system.c.shape[0]) in EXTREMES_ZOO:
            jobs.append(Job("extremes", _write_doc(workdir, system.name + ".json", system, {}), system))
    # cheapest job first: it doubles as the warm-up job
    jobs.sort(key=lambda j: j.system.name != "scalar_interval")
    return jobs


def _membership_candidates(rng: np.random.Generator, system: System) -> dict:
    """name -> (matrix, class) for one zoo system."""
    h_min = oracle.dare_minimal(*system.mats)
    h_max = oracle.dare_maximal(*system.mats)
    n = h_min.shape[0]
    scale = float(np.linalg.norm(h_min, 2))
    cands = {"hmin": (h_min, "equality"), "hmax": (h_max, "equality")}
    for lam in (0.25, 0.5, 0.75):
        cands[f"mix{int(lam * 100)}"] = (oracle.herm((1 - lam) * h_min + lam * h_max), "interior")
    cands["scaled"] = (0.5 * h_min, "outside")
    for k in range(2):
        cands[f"rand{k}"] = (_random_pd(rng, n, scale), "random")
    for k, eps in enumerate((1e-9, 1e-11)):
        cands[f"near{k}"] = (oracle.herm(h_min + eps * scale * _random_herm_unit(rng, n)), "near_boundary")
    return cands


def _membership_check(seed: int, workdir: str, max_dim: int) -> list[Job]:
    rng = np.random.default_rng([seed, 3])
    jobs = []
    for idx, system in enumerate(zoo(seed, max_dim)):
        cands = _membership_candidates(rng, system)
        layout = idx % 3
        if layout == 2:
            n = system.a.shape[0]
            scale = float(np.linalg.norm(cands["hmin"][0], 2))
            for k in range(FILLER_CANDIDATES):
                cands[f"fill{k:02d}"] = (_random_pd(rng, n, scale), "random")
        if layout == 0:
            docs = {
                name: _write_doc(workdir, f"{system.name}.{name}.json", system, {name: mat})
                for name, (mat, _) in cands.items()
            }
        else:
            whole = _write_doc(workdir, system.name + ".json", system,
                               {name: mat for name, (mat, _) in cands.items()})
            docs = dict.fromkeys(cands, whole)
        for name, (mat, tag) in cands.items():
            jobs.append(Job("check", docs[name], system, candidate=name, matrix=mat, tag=tag))
    return jobs


GENERATORS = {
    "zoo_solve": _zoo_solve,
    "extremes_certify": _extremes_certify,
    "membership_check": _membership_check,
}


def build(workload: str, seed: int, workdir: str, max_dim: int = 6) -> list[Job]:
    """Generate and write every document of a workload; return its pass.
    ``max_dim`` caps the zoo's state dimension (the self-tests use 2)."""
    os.makedirs(workdir, exist_ok=True)
    return GENERATORS[workload](seed, workdir, max_dim)
