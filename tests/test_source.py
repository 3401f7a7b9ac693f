"""Source checks on the package, read with the standard library's ``ast``:
no module imports a name it never uses. :func:`code_lines` counts the
package's code lines; to print it, run from the repository root

    python -c "import sys; sys.path.insert(0, 'tests'); from test_source import code_lines; print(code_lines())"
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(SRC.rglob("*.py"))


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(root: Path = SRC) -> int:
    """The number of lines of the ``.py`` files under ``root`` that are not
    blank, not comments and not part of a docstring."""
    total = 0
    for path in sorted(root.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        docstrings = _docstring_lines(ast.parse(source))
        total += sum(
            1
            for number, line in enumerate(source.splitlines(), 1)
            if line.strip() and not line.lstrip().startswith("#") and number not in docstrings
        )
    return total


def _unused_imports(source: str) -> list[str]:
    """The names ``source`` imports at any level and never reads, apart
    from ``__future__`` features and the names its ``__all__`` exports."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds the name a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_module_imports_a_name_it_never_uses(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, unused",
    [
        ("import os\n", ["os (line 1)"]),
        ("import os.path\nos.sep\n", []),
        ("from a import b as c\nb\n", ["c (line 1)"]),
        ("from a import b\n__all__ = ['b']\n", []),
        ("from __future__ import annotations\n", []),
        ("def f():\n    import json\n    return 1\n", ["json (line 2)"]),
        ("from a import B\ndef f(x: B) -> None:\n    pass\n", []),
    ],
)
def test_an_unused_import_is_found(source, unused):
    assert _unused_imports(source) == unused


def test_code_lines_leave_out_blank_comment_and_docstring_lines(tmp_path):
    (tmp_path / "m.py").write_text(
        '"""Module\ndocstring."""\n\n# comment\nX = """kept\nstring"""\n\n\n'
        'def f():\n    """Doc."""\n    return X  # trailing comment\n'
    )
    assert code_lines(tmp_path) == 4
