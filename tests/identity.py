"""Hash the ``--no-timings`` reports of the golden documents and of the
three benchmark workloads, so that two versions of the program can be
compared byte for byte.

From the repository root, with one BLAS thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/identity.py [--lines FILE]

The runs, each through ``riccati_kyp.cli.main`` in this process:

* every ``tests/golden/docs/*.json`` under ``analyze``, ``report``,
  ``solve-re`` and ``extremes`` at ``--seed 301 --no-timings``, plus
  ``check`` on each of its candidates;
* every job of ``bench/workloads.build(workload, seed, dir)`` for the three
  workloads at seeds 1 and 301, run as ``job.argv(dir, seed, out)``.

Each run gives one line, ``label<TAB>exit code<TAB>sha256 of the report
bytes``, labelled ``golden/<doc>/<command>``, ``golden/<doc>/check/<name>``
or ``<workload>/<seed>/<job index>/<command>/<job.doc>/<job.candidate>``.
The tool prints the number of runs and the SHA-256 of the sorted lines
joined by newlines; ``--lines FILE`` also writes the sorted lines, so that
a diff of two such files names every changed report. The workloads are
imported from ``bench/`` and generated in a temporary directory; nothing
under ``bench/`` is written. The hash depends on the BLAS build, so it is
compared between versions on one machine, not against a fixed value.
"""

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DOCS = ROOT / "tests" / "golden" / "docs"
WORKLOADS = ("zoo_solve", "extremes_certify", "membership_check")
SEEDS = (1, 301)
GOLDEN_COMMANDS = ("analyze", "report", "solve-re", "extremes")


def _run(argv: list[str], out: str) -> str:
    """``exit code<TAB>sha256`` of the report that ``argv`` writes to ``out``."""
    from riccati_kyp import cli

    code = cli.main(argv)
    with open(out, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    os.remove(out)
    return f"{code}\t{digest}"


def golden_lines(out: str) -> list[str]:
    import orjson

    lines = []
    for path in sorted(GOLDEN_DOCS.glob("*.json")):
        system = str(path.relative_to(ROOT))
        common = ["--system", system, "--seed", "301", "--no-timings", "--out", out]
        for command in GOLDEN_COMMANDS:
            lines.append(f"golden/{path.stem}/{command}\t{_run([command, *common], out)}")
        for name in orjson.loads(path.read_bytes()).get("candidates", {}):
            argv = ["check", *common, "--candidate", name]
            lines.append(f"golden/{path.stem}/check/{name}\t{_run(argv, out)}")
    return lines


def workload_lines(workdir: str, out: str) -> list[str]:
    sys.dont_write_bytecode = True  # leave bench/ as it is
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    lines = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            docs = os.path.join(workdir, f"{workload}.{seed}")
            for index, job in enumerate(workloads.build(workload, seed, docs)):
                label = f"{workload}/{seed}/{index}/{job.command}/{job.doc}/{job.candidate}"
                lines.append(f"{label}\t{_run(job.argv(docs, seed, out), out)}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lines", help="also write the sorted per-run lines here")
    args = parser.parse_args(argv)
    os.chdir(ROOT)  # golden paths are relative, as CI passes them
    with tempfile.TemporaryDirectory() as workdir:
        out = os.path.join(workdir, "report.json")
        lines = sorted(golden_lines(out) + workload_lines(workdir, out))
    text = "\n".join(lines)
    if args.lines:
        Path(args.lines).write_text(text + "\n", encoding="utf-8")
    print(f"{len(lines)} runs: sha256 {hashlib.sha256(text.encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
