"""Count the dense linear algebra that CLI jobs run, and the calls that
repeat an earlier call of the same job with identical arguments.

From the repository root, on one or more system documents, or on one
pass of a benchmark workload:

    PYTHONPATH=src python tests/census.py tests/golden/docs/*.json
    PYTHONPATH=src python tests/census.py --workload extremes_certify --seed 301

Each document is one job, ``report --seed 301 --no-timings``, and each job
of ``bench/workloads.build(workload, seed, dir)`` one job, its
``job.argv(dir, seed, out)``; every job runs in this process through
``riccati_kyp.cli.main``. The workload is generated in a temporary
directory before the census starts, so the generation's own calls are not
counted, and nothing under ``bench/`` is written. For the duration of the
run the functions of ``numpy.linalg`` and ``scipy.linalg`` named in
``WRAPPED`` are replaced by counting wrappers; a call that the libraries
make inside another wrapped function counts too. A call repeats when an
earlier call of the same job went to the same function with identical
arguments (arrays compared by dtype, shape and bytes). The census prints
the calls and the repeats in total, by function, and by the first
``riccati_kyp`` function on the call stack. It also prints how many times
each decider of ``riccati_kyp.systems._memo`` (a function of the package
with a ``known`` attribute) ran its ``__wrapped__`` over the jobs: a
decision, where a kept fact, or one that a realization reads off its
adjoint, is none. It only prints, and exits 0 unless a job raises.
:func:`census` takes any list of CLI argument lists.
"""

import argparse
import collections
import hashlib
import importlib
import os
import pkgutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import numpy.linalg
import scipy.linalg

WRAPPED = {
    numpy.linalg: (
        "eigh", "eigvalsh", "eig", "eigvals", "norm", "svd", "solve", "inv",
        "cholesky", "slogdet", "det", "qr", "pinv", "lstsq",
    ),
    scipy.linalg: (
        "schur", "ordqz", "eig", "eigvals", "solve_discrete_lyapunov", "qz",
        "svd", "solve", "inv", "eigh",
    ),
}
PACKAGE = "riccati_kyp"


def _feed(digest, value) -> None:
    """Feed ``value`` into ``digest``: an array by dtype, shape and bytes, a
    tuple, list or dict item by item, anything else by its repr."""
    if isinstance(value, np.ndarray):
        digest.update(f"array {value.dtype.str} {value.shape}".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (tuple, list)):
        digest.update(f"{type(value).__name__} {len(value)}".encode())
        for item in value:
            _feed(digest, item)
    elif isinstance(value, dict):
        _feed(digest, sorted(value.items()))
    else:
        digest.update(repr(value).encode())


def _caller() -> str:
    """The first function of the package on the call stack, outside this
    module, as ``module.function``."""
    frame = sys._getframe(2)
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module.startswith(PACKAGE + "."):
            return f"{module[len(PACKAGE) + 1:]}.{frame.f_code.co_name}"
        frame = frame.f_back
    return "(outside the package)"


class Census:
    """Calls and repeats by function and by caller, over the jobs run."""

    def __init__(self):
        self.calls = collections.Counter()
        self.repeats = collections.Counter()
        self.seen = set()  # (function, argument digest) of the current job
        self.decisions = collections.Counter()  # by module.decider

    def wrapper(self, name: str, real):
        def counted(*args, **kwargs):
            digest = hashlib.sha256()
            _feed(digest, (args, kwargs))
            key = (name, digest.hexdigest())
            caller = _caller()
            self.calls[name, caller] += 1
            if key in self.seen:
                self.repeats[name, caller] += 1
            self.seen.add(key)
            return real(*args, **kwargs)

        return counted

    def decider(self, label: str, decide):
        def counted(sigma):
            self.decisions[label] += 1
            return decide(sigma)

        return counted

    def table(self, axis: int) -> list[tuple[str, int, int]]:
        """``(label, calls, repeats)`` by function (axis 0) or by caller
        (axis 1), most calls first."""
        calls, repeats = collections.Counter(), collections.Counter()
        for key, count in self.calls.items():
            calls[key[axis]] += count
            repeats[key[axis]] += self.repeats[key]
        return sorted(((k, calls[k], repeats[k]) for k in calls), key=lambda r: (-r[1], r[0]))


def _deciders() -> dict:
    """The ``_memo`` deciders of the package, each once, by
    ``module.function``: the functions with a ``known`` attribute."""
    import riccati_kyp

    found = {}
    for info in pkgutil.iter_modules(riccati_kyp.__path__):
        module = importlib.import_module(f"{PACKAGE}.{info.name}")
        for value in vars(module).values():
            if callable(value) and hasattr(value, "known"):
                found[f"{value.__module__[len(PACKAGE) + 1:]}.{value.__name__}"] = value
    return found


def census(argvs: list[list[str]]) -> Census:
    """Run each CLI argument list as one job, with the wrappers in place;
    each job's report goes to a temporary file."""
    from riccati_kyp import cli

    counts = Census()
    targets = [(module, name, f"{module.__name__}.{name}", counts.wrapper)
               for module, names in WRAPPED.items() for name in names]
    targets += [(kept, "__wrapped__", label, counts.decider)
                for label, kept in _deciders().items()]
    originals = [(target, name, getattr(target, name)) for target, name, _, _ in targets]
    for target, name, label, wrap in targets:
        setattr(target, name, wrap(label, getattr(target, name)))
    try:
        with tempfile.TemporaryDirectory() as workdir:
            out = os.path.join(workdir, "report.json")
            for argv in argvs:
                counts.seen.clear()
                cli.main(argv + ["--out", out])
    finally:
        for module, name, real in originals:
            setattr(module, name, real)
    return counts


def _workload_argvs(workload: str, seed: int, workdir: str) -> list[list[str]]:
    """The argument lists of one pass of ``workload`` at ``seed``, its
    documents written to ``workdir``, without the ``--out`` that each job
    ends with and that :func:`census` sets."""
    sys.dont_write_bytecode = True  # leave bench/ as it is
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    jobs = workloads.build(workload, seed, workdir)
    return [job.argv(workdir, seed, "")[:-2] for job in jobs]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", help="system documents, one report job each")
    parser.add_argument("--workload", help="a benchmark workload, one pass of its jobs")
    parser.add_argument("--seed", type=int, default=301, help="the workload's seed")
    args = parser.parse_args(argv)
    argvs = [["report", "--system", path, "--seed", "301", "--no-timings"]
             for path in args.paths]
    with tempfile.TemporaryDirectory() as workdir:
        if args.workload:
            argvs += _workload_argvs(args.workload, args.seed, workdir)
        counts = census(argvs)
    total, repeated = sum(counts.calls.values()), sum(counts.repeats.values())
    print(f"{len(argvs)} jobs: {total} calls, {repeated} repeat an earlier call "
          "of the same job with identical arguments")
    for axis, title in ((0, "function"), (1, f"first {PACKAGE} caller")):
        print(f"\n{'calls':>6} {'repeats':>7}  {title}")
        for label, calls, repeats in counts.table(axis):
            print(f"{calls:6d} {repeats:7d}  {label}")
    print(f"\n{'decisions':>9}  _memo decider")
    for label, count in sorted(counts.decisions.items(), key=lambda r: (-r[1], r[0])):
        print(f"{count:9d}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
