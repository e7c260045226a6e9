"""Every module of the package uses every name it imports, every
top-level definition is read somewhere or exported, and README's module
map names every module and states the package's line count."""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "survsteiner"
# the package's __init__ imports names to re-export them
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports (``__future__`` aside) and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c as d, e\nos.sep\ne()\n") == ["d"]


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def reads(node: ast.AST) -> set[str]:
    """Names a syntax tree reads, bare or as an attribute."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            found.add(sub.attr)
    return found


def defined_names(stmt: ast.stmt) -> list[str]:
    """Names a top-level statement defines: a function or class, or the
    plain names an assignment binds (``__all__`` aside)."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    )
    return [
        sub.id for t in targets for sub in ast.walk(t)
        if isinstance(sub, ast.Name) and sub.id != "__all__"
    ]


def dead_definitions(sources: dict[str, str]) -> list[str]:
    """``module:name`` of each top-level function, class or assigned name
    (``__init__.py`` aside) that no ``__all__`` lists and no other
    top-level statement of the sources reads."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    exported = set()
    statements = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
            ):
                exported |= set(ast.literal_eval(stmt.value))
            statements.append((module, stmt, reads(stmt)))
    dead = []
    for module, stmt, _ in statements:
        if module == "__init__.py":
            continue
        for name in defined_names(stmt):
            if name not in exported and not any(
                name in r for _, other, r in statements if other is not stmt
            ):
                dead.append(f"{module}:{name}")
    return dead


def test_the_check_sees_a_dead_definition():
    sources = {
        "__init__.py": "from .a import f\n__all__ = ['f']\n",
        "a.py": "def f(): return g\ndef g(): pass\ndef h(): return h()\n"
        "class K: pass\n",
        "b.py": "from . import a\nx = a.K\n",
    }
    assert dead_definitions(sources) == ["a.py:h", "b.py:x"]


def test_the_check_sees_a_dead_constant():
    # a module constant left behind when its last reader went, a tuple
    # target and an annotated name that nothing reads
    sources = {
        "a.py": "_USED = 3\n_BATCH = 32\n_LO, _HI = 0, 1\n_TABLE: dict = {}\n"
        "def f(): return _USED + _HI\n",
        "b.py": "from .a import f\n__all__ = ['f']\n",
    }
    assert dead_definitions(sources) == ["a.py:_BATCH", "a.py:_LO", "a.py:_TABLE"]


def test_every_definition_is_read_or_exported():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert dead_definitions(sources) == []


def test_readme_module_map_names_every_module():
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    table = readme.split("Module map", 1)[1].split("\n\n", 2)[1]
    named = sorted(f"{name}.py" for name in re.findall(r"^\| `(\w+)`", table, re.M))
    assert named == MODULES


def test_readme_states_the_package_line_count():
    # ROADMAP tracks this count as the design metric; README states it
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    stated = re.search(r"`src/survsteiner` is ([\d,]+) lines", readme)
    assert stated is not None
    lines = sum(p.read_text().count("\n") for p in PACKAGE.glob("*.py"))
    assert int(stated.group(1).replace(",", "")) == lines
