"""Run tier-1 under a standard-library line tracer and list every statement
of ``src/riccati_kyp`` that no test reaches.

From the repository root, with tier-1's arguments or with any others given
to pytest:

    PYTHONPATH=src python tests/reach.py [pytest arguments]

Every ``ast.stmt`` of the package counts, keyed by its first line, apart
from ``def`` and ``class`` statements (which run on import) and docstrings.
A statement inside a header that carries ``# pragma: no cover`` is exempt,
and so is a statement whose first line carries it. Each unreached statement
is printed as ``module.py:line: text``. The exit code is pytest's when a
test fails, else 1 when a statement is unreached, else 0. The CLI tests
that run a subprocess are not traced.
"""

import ast
import os
import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "riccati_kyp"
TIER1 = ["-q", "--continue-on-collection-errors"]
PRAGMA = "# pragma: no cover"


def _header_end(node: ast.stmt) -> int:
    """The last line of ``node``'s header: the line before its body begins
    for a compound statement, else its first line."""
    body = getattr(node, "body", None)
    if isinstance(body, list) and body and body[0].lineno > node.lineno:
        return body[0].lineno - 1
    return node.lineno


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statements(source: str) -> dict[int, str]:
    """The executable statements of ``source``: for each, its first line's
    number and that line's text, stripped."""
    lines = source.splitlines()
    found = {}

    def visit(parent: ast.AST) -> None:
        for node in ast.iter_child_nodes(parent):
            # statements sit only in statements, except clauses and cases
            if not isinstance(node, (ast.stmt, ast.excepthandler, ast.match_case)):
                continue
            if hasattr(node, "lineno") and any(
                PRAGMA in lines[n - 1] for n in range(node.lineno, _header_end(node) + 1)
            ):
                continue
            if isinstance(node, ast.stmt) and not (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                or _is_docstring(node, parent)
            ):
                found[node.lineno] = lines[node.lineno - 1].strip()
            visit(node)

    visit(ast.parse(source))
    return found


def unreached(hits: dict[str, set[int]], root: Path = PACKAGE) -> list[str]:
    """``module.py:line: text`` for each statement of the modules under
    ``root`` whose first line is not among the lines ``hits`` holds for its
    file."""
    missed = []
    for path in sorted(root.rglob("*.py")):
        reached = hits.get(str(path), set())
        for number, text in statements(path.read_text(encoding="utf-8")).items():
            if number not in reached:
                missed.append(f"{path.relative_to(root).as_posix()}:{number}: {text}")
    return missed


def main(args: list[str]) -> int:
    prefix = str(PACKAGE) + os.sep
    # each code file name as its real path under the package, or None
    known: dict[str, str | None] = {}
    hits: dict[str, set[int]] = {}

    def on_line(frame, event, arg):
        if event == "line":
            hits[known[frame.f_code.co_filename]].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in known:
            path = os.path.realpath(filename)
            known[filename] = path if path.startswith(prefix) else None
            if known[filename]:
                hits.setdefault(path, set())
        return on_line if known[filename] else None

    # installed before anything imports riccati_kyp, so that module-level
    # statements are traced too
    threading.settrace(on_call)
    sys.settrace(on_call)
    import pytest

    try:
        code = pytest.main(args or TIER1)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = unreached(hits)
    for line in missed:
        print(line)
    print(f"{len(missed)} unreached statement(s) in {PACKAGE.name}")
    return int(code) or (1 if missed else 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
