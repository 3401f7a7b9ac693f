"""Source checks on the package, read with the standard library's ``ast``:
no module imports a name it never uses, the package exports each of its
modules' ``__all__`` once, no call passes a numeric literal as a tolerance
or a grid setting, and the third-party modules it imports are exactly its
declared runtime dependencies. The rules by which
``tests/reach.py`` finds the statements that tier-1 must reach are pinned
here too, and so is the one statement exempt from them.
:func:`code_lines` counts the package's code lines and
:func:`module_code_lines` each module's; to print the total, run from the
repository root

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); from test_source import code_lines; print(code_lines())"
"""

import ast
import importlib
import re
import sys
import textwrap
from pathlib import Path

import pytest

import reach
import riccati_kyp
from riccati_kyp import errors, linops

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(SRC.rglob("*.py"))
PACKAGE = SRC / "riccati_kyp"
# the modules whose __all__ the package re-exports, in its order
SURFACE = ("boundary", "errors", "linops", "riccati", "solver", "systems")


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


def module_code_lines(root: Path = SRC) -> dict[str, int]:
    """For each ``.py`` file under ``root``, by its path relative to
    ``root``, the number of its lines that are not blank, not comments and
    not part of a docstring."""
    counts = {}
    for path in sorted(root.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        docstrings = _docstring_lines(ast.parse(source))
        counts[path.relative_to(root).as_posix()] = sum(
            1
            for number, line in enumerate(source.splitlines(), 1)
            if line.strip() and not line.lstrip().startswith("#") and number not in docstrings
        )
    return counts


def code_lines(root: Path = SRC) -> int:
    """The number of code lines of the ``.py`` files under ``root``, as
    :func:`module_code_lines` counts them."""
    return sum(module_code_lines(root).values())


def _is_all(target: ast.expr) -> bool:
    return isinstance(target, ast.Name) and target.id == "__all__"


def _literal_all(path: Path) -> list[str] | None:
    """The literal list that the module at ``path`` assigns to ``__all__``
    at top level; None when there is no such module or assignment."""
    if not path.is_file():
        return None
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(map(_is_all, node.targets)):
            return ast.literal_eval(node.value)
    return None


def _unused_imports(source: str, folder: Path = PACKAGE) -> list[str]:
    """The names ``source`` imports at any level and never reads, apart
    from ``__future__`` features and the names its ``__all__`` exports.

    ``source`` is read as a module in ``folder``. ``from .module import *``
    imports the literal ``__all__`` of ``folder / "module.py"``, and
    ``__all__ += module.__all__`` exports it; any other star import, whose
    names cannot be read off the source, is reported as ``* from module``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    # "import a.b" binds the name a
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
                    continue
                names = None
                if node.level == 1 and node.module:
                    names = _literal_all(folder / f"{node.module}.py")
                module = "." * node.level + (node.module or "")
                imported.update(dict.fromkeys(names or [f"* from {module}"], node.lineno))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(map(_is_all, node.targets)):
            used.update(ast.literal_eval(node.value))
        elif (
            isinstance(node, ast.AugAssign)
            and _is_all(node.target)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "__all__"
            and isinstance(node.value.value, ast.Name)
        ):
            used.update(_literal_all(folder / f"{node.value.value.id}.py") or [])
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_module_imports_a_name_it_never_uses(path):
    assert _unused_imports(path.read_text(encoding="utf-8"), path.parent) == []


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
        # a relative star import binds its sibling's __all__, name by name
        ("from .linops import *\n", [f"{name} (line 1)" for name in linops.__all__]),
        ("from .linops import *\n__all__ = []\n__all__ += linops.__all__\n", []),
        (
            "from .errors import *\nraise NotPD\n",
            [f"{name} (line 1)" for name in errors.__all__ if name != "NotPD"],
        ),
        ("from numpy import *\n", ["* from numpy (line 1)"]),
        ("from .missing import *\n", ["* from .missing (line 1)"]),
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
    assert module_code_lines(tmp_path) == {"m.py": 4}


def test_the_package_exports_each_modules_all_once():
    modules = [importlib.import_module(f"riccati_kyp.{name}") for name in SURFACE]
    names = ["__version__"] + [name for module in modules for name in module.__all__]
    assert riccati_kyp.__all__ == names
    assert len(set(names)) == len(names)
    namespace = {}
    exec("from riccati_kyp import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(names)
    for module in modules:
        for name in module.__all__:
            assert namespace[name] is getattr(module, name)
    # left out of linops' __all__, but still importable from it
    assert {"EPS", "default_rank_tol"} <= set(vars(linops))


def _tolerance_constants(root: Path = PACKAGE) -> set[str]:
    """The module-level names ending in ``_TOL``, ``_BAND`` or ``_GAP`` that
    the ``.py`` files under ``root`` assign."""
    names = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                names.update(
                    target.id
                    for target in node.targets
                    if isinstance(target, ast.Name)
                    and re.search(r"_(TOL|BAND|GAP)$", target.id)
                )
    return names


def _readme_section(title: str) -> str:
    """The text of README's ``## title`` section, up to the next ``## ``."""
    text = (SRC.parent / "README.md").read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_every_tolerance_constant_is_named_under_numerical_conventions():
    # a threshold that no caller varies is a module constant, and README
    # lists each one, so the list cannot drift from the code
    names = _tolerance_constants()
    assert {"EQUALITY_TOL", "RANGE_TOL", "INNER_TOL", "BOUNDARY_BAND", "CIRCLE_GAP"} <= names
    section = _readme_section("Numerical conventions")
    assert sorted(name for name in names if not re.search(rf"\b{name}\b", section)) == []


# the keywords that take a setting a module names: a tolerance, and the
# circle grid of the Schur margin
_SETTING_KEYWORD = re.compile(r"(\w+_)?tol|grid_steps|radius")


def _literal_settings(source: str, name: str = "<source>") -> list[str]:
    """``name:line keyword`` for each keyword argument of a call in
    ``source`` that passes a numeric literal, signed or not, to a keyword
    that ``_SETTING_KEYWORD`` matches, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        for keyword in node.keywords if isinstance(node, ast.Call) else ():
            value = keyword.value
            if isinstance(value, ast.UnaryOp) and isinstance(value.op, (ast.USub, ast.UAdd)):
                value = value.operand
            if (
                keyword.arg is not None
                and _SETTING_KEYWORD.fullmatch(keyword.arg)
                and isinstance(value, ast.Constant)
                and type(value.value) in (int, float)
            ):
                found.append((keyword.value.lineno, keyword.arg))
    return [f"{name}:{line} {arg}" for line, arg in sorted(found)]


def test_no_call_in_src_passes_a_literal_setting():
    # a threshold or grid that decides or labels a report field is a named
    # constant, which README lists, not a number written at a call
    assert [
        found
        for path in MODULES
        for found in _literal_settings(path.read_text(encoding="utf-8"), path.name)
    ] == []


def test_a_literal_setting_is_found():
    source = textwrap.dedent(
        """\
        f(x, tol=1e-6)
        g(grid_steps=48,
          radius=-0.5, eq_tol=TOL, tolerance=1.0)
        h(membership_tol=1, c3_tol=True, radius=R, steps=4)
        """
    )
    assert _literal_settings(source, "m.py") == [
        "m.py:1 tol", "m.py:2 grid_steps", "m.py:3 radius", "m.py:4 membership_tol",
    ]


def _top_level_imports(root: Path = SRC) -> set[str]:
    """The top-level modules that the ``.py`` files under ``root`` import
    at any level, by absolute name."""
    names = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def _third_party_imports(root: Path = SRC) -> set[str]:
    """:func:`_top_level_imports` apart from the standard library's and the
    package's own."""
    return _top_level_imports(root) - set(sys.stdlib_module_names) - {"riccati_kyp"}


def test_no_module_of_the_package_imports_json():
    # orjson reads every document and writes every report; a second JSON
    # library would be a second reader, with rules of its own
    assert "json" not in _top_level_imports()


def _dependency_mismatch(imported: set[str], declared: list[str]) -> tuple[list, list]:
    """The imported modules that no requirement in ``declared`` names, and
    the requirements that name no imported module. A requirement names the
    module of its distribution name, lower-cased with ``-`` as ``_``, which
    holds for numpy, scipy and orjson."""
    names = {
        re.match(r"[A-Za-z0-9._-]+", spec).group().lower().replace("-", "_")
        for spec in declared
    }
    return sorted(imported - names), sorted(names - imported)


def _declared_dependencies() -> list[str]:
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["dependencies"]


def test_every_third_party_import_is_a_declared_dependency():
    assert _dependency_mismatch(_third_party_imports(), _declared_dependencies()) == ([], [])


def test_a_dependency_mismatch_is_found():
    imported = _third_party_imports()
    declared = _declared_dependencies()
    without = [spec for spec in declared if not spec.startswith("orjson")]
    assert _dependency_mismatch(imported, without) == (["orjson"], [])
    assert _dependency_mismatch(imported - {"orjson"}, declared) == ([], ["orjson"])


_REACH_SOURCE = textwrap.dedent(
    '''\
    """Module docstring."""
    import os


    def f(x):
        """Docstring."""
        y = os.path.join(
            x,
            x,
        )
        try:
            return y
        except OSError:
            return None


    class C:
        """Docstring."""
        if os.sep:  # pragma: no cover
            z = 1
        w = 2
        v = 3  # pragma: no cover


    def g():  # pragma: no cover
        return 1
    '''
)


def test_the_reach_gate_counts_statements_by_their_first_line():
    # no docstring and no def or class line counts; a multi-line call counts
    # once, on its first line; a pragma exempts its statement and all
    # that its header holds
    assert reach.statements(_REACH_SOURCE) == {
        2: "import os",
        7: "y = os.path.join(",
        11: "try:",
        12: "return y",
        14: "return None",
        21: "w = 2",
    }


def test_the_reach_gate_lists_each_unreached_statement(tmp_path):
    (tmp_path / "m.py").write_text(_REACH_SOURCE)
    path = str(tmp_path / "m.py")
    assert reach.unreached({path: {2, 7, 11, 12, 21}}, tmp_path) == ["m.py:14: return None"]
    assert reach.unreached({}, tmp_path)[0] == "m.py:2: import os"


def test_one_statement_in_src_is_exempt_from_the_reach_gate():
    marked = [
        (path.name, line.strip())
        for path in MODULES
        for line in path.read_text(encoding="utf-8").splitlines()
        if reach.PRAGMA in line
    ]
    assert marked == [("cli.py", 'if __name__ == "__main__":  # pragma: no cover')]
