"""Closed-loop load generator: one client runs the CLI in-process, one job
at a time.

A run sets up (import, document generation, one warm-up job) SETUP_REPEATS
times and reports the median, then runs as many whole passes of the
workload as fill ``--seconds`` at the workload's nominal pass time. Every report of the
first pass is judged by the oracle; later passes must reproduce its bytes.

Timings are corrected for the speed of the host. On a 2-core 2.1 GHz Xeon
VM the same job ran at 1.0x to 2.1x its best time, in slow phases lasting
from seconds to minutes; CPU time moved with wall time, so this is
contention on the host, not descheduling, and no statistic taken inside a
20 s run removes it. So a fixed probe computation that does not touch the
library (JSON decoding plus the oracle's small dense linear algebra, about
8 ms on that VM when it is quiet) is timed between jobs, at most every
PROBE_EVERY_S, and, from a SIGALRM handler, every PROBE_TICK_S inside a
job, because host speed changes within the 2-15 s jobs of extremes_certify.
A job's wall time, less the time its in-job probes took, is multiplied by
PROBE_REF_S over the mean of the probe times just before, inside and just
after it. Over 90 s of alternating runs the correction cut the spread of
20-job medians of a solve-re job from 0.079-0.137 s to 9.6-11.3 probe
units; over five seeds of extremes_certify the in-job probes cut the
spread of jobs_per_s from 0.26 (probes between jobs only) to 0.04. Timings
are therefore seconds at the probe's reference speed; the uncorrected
figures are printed on the summary line. A distinct job's time is the median of its repeats;
``job_s_p50`` is the median over distinct jobs, and ``jobs_per_s`` is every
job run over the corrected time of all of them. The harness's own work
between jobs (reading and judging reports, probing) is not the program's
and is left out.

``peak_rss_mb`` is the peak resident size of this whole process: the
interpreter, numpy and scipy (about 60 MB together), the oracle and the
library's working memory, which is a few MB at most (tracemalloc puts an
analyze at n = 6 near 5 MB). tracemalloc itself slows a solve-re job about
five times, too much to run it over the passes.

With ``trace`` on, the same number of passes is run twice, untraced and
then under the tracer, and the run reports per-layer figures per pass plus
the tracer's overhead; the two sets of reports must be byte-identical.
Per-layer seconds are wall seconds as the tracer read them, without the
host-speed correction, so they compare with each other and with the raw
time of the traced passes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np
import scipy

import judge
import oracle
import workloads
from tracer import Tracer

SETUP_REPEATS = 15
P90_MIN_JOBS = 100
PROBE_REF_S = 0.008
PROBE_EVERY_S = 0.25
PROBE_TICK_S = 0.5

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "re_members_found": "count",
    "duality_fill_frac": "ratio",
}

# per-layer figures taken from the traced passes, per pass: calls, self
# time (the span less its wrapped child spans) and inclusive time
LAYER_CALLS = (
    "riccati.membership",
    "riccati.riccati_data",
    "riccati.associated_system",
    "systems.is_minimal",
    "systems.schur_class_margin",
    "solver.sample_ri_members",
    "solver.minimal_solution",
    "solver.maximal_solution",
    "solver.duality_check",
    "solver.order_solutions",
    "solver.solve_re",
    "boundary.circle_profile",
    "boundary.uniqueness_certificate",
    "linops.loewner_compare",
    "cli.main",
)
LAYER_COUNTS = (
    "riccati.membership.boundary_cases",
    "riccati.membership.not_pd",
    "solver.sample_ri_members.requested",
    "solver.sample_ri_members.returned",
    "solver.solve_re.members",
    "solver.solve_re.newton_iters",
)
SAMPLER = "solver.sample_ri_members"


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in LAYER_CALLS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.total_s"] = "s"
    for name in LAYER_COUNTS:
        units[name] = "count"
    units[f"{SAMPLER}.tries"] = "count"
    units[f"{SAMPLER}.accept_ratio"] = "ratio"
    units[f"{SAMPLER}.fill_ratio"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    return units


@dataclass
class Outcome:
    """Latencies of every repeat of every job, and what the oracle made of
    each distinct job's first report."""

    # latencies[j] holds every corrected latency of distinct job j
    latencies: dict[int, list[float]] = field(default_factory=dict)
    raw_s: float = 0.0
    failed: int = 0
    wrong: int = 0
    passes: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[int, str] = field(default_factory=dict)
    re_members: int = 0
    undecided: int = 0
    missed: int = 0
    duality_returned: int = 0
    duality_requested: int = 0

    def samples(self) -> list[float]:
        return [t for times in self.latencies.values() for t in times]

    def per_job(self) -> list[float]:
        """Each distinct job's median corrected latency. Failed jobs keep
        their own latency; failures are reported by count, not folded into
        the timings."""
        return [statistics.median(times) for times in self.latencies.values()]


class SpeedProbe:
    """Times a fixed computation that does not touch the library and turns
    it into the factor that brings a wall time to the reference speed."""

    def __init__(self) -> None:
        self.system = workloads.random_passive(np.random.default_rng(0), 4, 2, 2, "probe")
        self.h = oracle.dare_minimal(*self.system.mats)
        self.doc = json.dumps({"A": workloads._encode(self.system.a), "H": workloads._encode(self.h)})
        self.taken = -math.inf
        self.last = PROBE_REF_S
        # factors read inside jobs, and the seconds those reads took
        self.ticks: list[float] = []
        self.tick_s = 0.0

    def _measure(self) -> float:
        start = time.perf_counter()
        for _ in range(40):
            json.loads(self.doc)
            oracle.lmi_margin(*self.system.mats, self.h)
            oracle.equality_residual(*self.system.mats, self.h)
        return time.perf_counter() - start

    def scale(self) -> float:
        """PROBE_REF_S over the latest probe time, re-probing when stale."""
        if time.perf_counter() - self.taken >= PROBE_EVERY_S:
            self.last = self._measure()
            self.taken = time.perf_counter()
        return PROBE_REF_S / self.last

    def start(self) -> tuple[float, int]:
        """Mark the start of a timed stretch."""
        return self.scale(), len(self.ticks)

    def factor(self, started: tuple[float, int]) -> float:
        """Mean factor over the stretch begun at ``started``: the probes
        before it, inside it and after it."""
        before, mark = started
        return statistics.fmean([before, *self.ticks[mark:], self.scale()])

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.ticks.append(PROBE_REF_S / self._measure())
        self.tick_s += time.perf_counter() - start

    def arm(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_TICK_S, PROBE_TICK_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


class Harness:
    def __init__(self, root: str, workload: str, seed: int, max_dim: int = 6) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.solver_seed = seed % (2**31)
        self.max_dim = max_dim
        self.workdir = os.path.join(root, ".bench_work", f"{workload}-{os.getpid()}")
        self.out_path = os.path.join(self.workdir, "report.json")
        self.jobs: list[workloads.Job] = []
        self.probe = SpeedProbe()
        # in-job probing is off under the tracer, whose spans would hold it
        self.sampling = True

    # -- set-up ---------------------------------------------------------------

    def _import_s(self) -> float:
        """Time to import the CLI in a fresh interpreter, as a user pays it."""
        code = (
            "import time; t = time.perf_counter(); import riccati_kyp.cli; "
            "print(time.perf_counter() - t)"
        )
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=self.root,
            capture_output=True, text=True, check=True, timeout=120,
        )
        return float(out.stdout.strip().splitlines()[-1])

    def setup(self) -> float:
        """Median over repeats of import + document generation + warm-up
        job, corrected for host speed."""
        times = []
        for _ in range(SETUP_REPEATS):
            started = self.probe.start()
            import_s = self._import_s()
            start = time.perf_counter()
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.jobs = workloads.build(self.workload, self.seed, self.workdir, self.max_dim)
            build_s = time.perf_counter() - start
            job_s = self._run_job(self.jobs[0])[1]
            times.append((import_s + build_s + job_s) * self.probe.factor(started))
        return statistics.median(times)

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.workdir))
        except OSError:
            pass

    # -- passes ---------------------------------------------------------------

    def _run_job(self, job: workloads.Job) -> tuple[int, float, bytes]:
        """Run one job; its wall time leaves out in-job probes."""
        from riccati_kyp import cli

        argv = job.argv(self.workdir, self.solver_seed, self.out_path)
        probed = self.probe.tick_s
        if self.sampling:
            self.probe.arm()
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        finally:
            elapsed = time.perf_counter() - start
            if self.sampling:
                self.probe.disarm()
        elapsed -= self.probe.tick_s - probed
        with open(self.out_path, "rb") as fh:
            payload = fh.read()
        os.remove(self.out_path)
        return code, elapsed, payload

    def run_pass(self, outcome: Outcome) -> None:
        """Run the pass once. The first report of each distinct job is
        judged and its digest becomes the reference every later report of
        that job must match."""
        for job in self.jobs:
            key = id(job)
            started = self.probe.start()
            code, elapsed, payload = self._run_job(job)
            outcome.raw_s += elapsed
            outcome.latencies.setdefault(key, []).append(elapsed * self.probe.factor(started))
            digest = hashlib.sha256(payload).hexdigest()
            judging = key not in outcome.digests
            if code != 0:
                outcome.failed += 1
                if judging:
                    outcome.problems.append(f"{job.command} {job.doc}: exit {code} {payload[:200]!r}")
            if judging:
                outcome.digests[key] = digest
                if code == 0:
                    self._judge(outcome, job, json.loads(payload))
            elif digest != outcome.digests[key]:
                outcome.wrong += 1
                outcome.problems.append(f"{job.command} {job.doc}: report bytes differ from the first run")
        outcome.passes += 1

    def _judge(self, outcome: Outcome, job: workloads.Job, report: dict) -> None:
        verdict = judge.judge(job, report)
        if verdict.problems:
            outcome.wrong += 1
            outcome.problems.append(
                f"{job.command} {job.doc} {job.candidate or ''}: " + "; ".join(verdict.problems)
            )
        outcome.re_members += verdict.re_members
        outcome.undecided += verdict.undecided
        outcome.missed += verdict.missed
        outcome.duality_returned += verdict.duality_returned
        outcome.duality_requested += verdict.duality_requested

    def run_passes(self, count: int, outcome: Outcome) -> None:
        for _ in range(count):
            self.run_pass(outcome)


def pass_count(workload: str, seconds: float) -> int:
    """Passes that fill ``seconds`` at the nominal pass time. The count
    depends only on the arguments, never on measured speed, so a faster
    program repeats each job as often as its parent did."""
    return max(1, round(seconds / workloads.NOMINAL_PASS_S[workload]))


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        vendor = "unknown"
    return {
        "nproc": os.cpu_count(),
        "blas": vendor,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(outcome: Outcome, setup_s: float) -> dict:
    per_job = outcome.per_job()
    samples = outcome.samples()
    # a pass that requests no duality samples has nothing missing
    fill = (
        outcome.duality_returned / outcome.duality_requested
        if outcome.duality_requested else 1.0
    )
    values = {
        "jobs_per_s": len(samples) / sum(samples),
        "job_s_p50": statistics.median(per_job),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "re_members_found": outcome.re_members,
        "duality_fill_frac": fill,
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}


def per_layer(tracer: Tracer, passes: int, untraced_s: float, traced_s: float) -> dict:
    units = per_layer_units()
    values: dict[str, float] = {}
    for name in LAYER_CALLS:
        stat = tracer.stats.get(name)
        values[f"{name}.calls"] = (stat.calls if stat else 0) / passes
        values[f"{name}.self_s"] = (stat.self_s if stat else 0.0) / passes
        values[f"{name}.total_s"] = (stat.total_s if stat else 0.0) / passes
    for name in LAYER_COUNTS:
        values[name] = tracer.counts.get(name, 0) / passes
    tries = tracer.edge(SAMPLER, "riccati.membership")
    requested = tracer.counts.get(f"{SAMPLER}.requested", 0)
    returned = tracer.counts.get(f"{SAMPLER}.returned", 0)
    values[f"{SAMPLER}.tries"] = tries / passes
    values[f"{SAMPLER}.accept_ratio"] = returned / tries if tries else 0.0
    values[f"{SAMPLER}.fill_ratio"] = returned / requested if requested else 0.0
    values["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    return {name: _metric(values[name], unit) for name, unit in units.items()}


def expectations(workload: str, tracer: Tracer, traced_s: float) -> dict:
    """What the workload is designed to show; each entry is 'ok' or says
    what differs. ``traced_s`` is the uncorrected time of all traced jobs,
    the clock the tracer reads."""
    sampler = tracer.stats.get(SAMPLER)
    calls = sampler.calls if sampler else 0
    if workload == "extremes_certify":
        share = (sampler.total_s if sampler else 0.0) / traced_s
        tries = tracer.edge(SAMPLER, "riccati.membership")
        return {
            "sampler_holds_most_of_pass": ("ok" if share > 0.5 else "differs") + f": share {share:.3f}",
            "sampler_tries_nonzero": "ok" if tries > 0 else "differs: 0 tries",
        }
    return {"sampler_not_called": "ok" if calls == 0 else f"differs: {calls} calls"}


def run(root: str, workload: str, seed: int, seconds: float, trace: bool,
        max_dim: int = 6, emit=print) -> dict:
    """One benchmark run; prints a readable summary through ``emit`` and
    returns the result object."""
    harness = Harness(root, workload, seed, max_dim)
    untraced, traced = Outcome(), Outcome()
    try:
        setup_s = harness.setup()
        emit("env: " + json.dumps(environment(), sort_keys=True))
        passes = pass_count(workload, seconds / 2 if trace else seconds)
        harness.run_passes(passes, untraced)
        if trace:
            tracer = Tracer()
            harness.sampling = False
            traced.digests = dict(untraced.digests)
            tracer.install()
            try:
                harness.run_passes(passes, traced)
            finally:
                tracer.uninstall()
            metrics = per_layer(tracer, passes, sum(untraced.samples()), sum(traced.samples()))
            emit("expectations: " + json.dumps(
                expectations(workload, tracer, traced.raw_s), sort_keys=True))
        else:
            metrics = end_to_end(untraced, setup_s)
    finally:
        harness.cleanup()

    attempted = len(untraced.samples()) + len(traced.samples())
    failed = untraced.failed + traced.failed
    wrong = untraced.wrong + traced.wrong
    per_job = untraced.per_job()
    summary = {
        "workload": workload,
        "seed": seed,
        "passes": untraced.passes,
        "jobs_per_pass": len(harness.jobs),
        "distinct_jobs": len(per_job),
        "failed_frac": failed / attempted,
        "wrong_frac": wrong / attempted,
        "job_s_p50": statistics.median(per_job),
        "latency_samples": len(per_job),
        "raw_jobs_per_s": len(untraced.samples()) / untraced.raw_s,
        "speed_factor": sum(untraced.samples()) / untraced.raw_s,
        "undecided_per_pass": untraced.undecided,
        "solve_re_missed_per_pass": untraced.missed,
    }
    if len(per_job) >= P90_MIN_JOBS:
        summary["job_s_p90"] = statistics.quantiles(per_job, n=10)[-1]
    emit("summary: " + json.dumps(summary, sort_keys=True))
    for problem in (untraced.problems + traced.problems)[:20]:
        emit("problem: " + problem)
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
