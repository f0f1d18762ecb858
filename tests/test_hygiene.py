"""Source hygiene: no unused imports, and no public name or field that only the tests use.

No linter ships with the project, so the checks are small AST scans. A
name bound by a module-level ``import`` or ``from ... import`` in the
package, the tests or the bench must be read somewhere in the same module
(as a name, as the base of an attribute, or inside a quoted annotation);
``from __future__`` imports are exempt. Every top-level public function and
class of the package must be referenced by the package, the bench or the
acceptance gate; ``oracle.py`` is exempt, since it is the reference the
tests compare against. Every annotated field and public method of a class
of the package, ``oracle.py`` included, must be read as an attribute by
the same code. The field scan matches attribute names only, so it misses
an unread field when some other read attribute has the same name (as
``ProtocolCircuit.protocol`` was missed, because ``ProtocolRun.protocol`` is
read).
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted(ROOT.glob("src/lgadroit/*.py"))
BENCH = sorted(ROOT.glob("bench/*.py"))
FILES = sorted([*SRC, *ROOT.glob("tests/*.py"), *BENCH])
# the code whose use keeps a public name in the package
CALLERS = [*SRC, *BENCH, ROOT / "tests" / "test_acceptance.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            # a quoted annotation such as "DensityMatrix"
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used.update(n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os\nfrom math import pi, sqrt\n"
              "import numpy.linalg\nx = sqrt(2) + numpy.linalg.norm([1])\ny: 'os.PathLike'\n")
    assert unused_imports(source) == ["pi (line 3)"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_level_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def references(source: str) -> set[str]:
    """Names read as a name, an attribute or an import alias, outside their own definition."""
    found = set()
    for stmt in ast.parse(source).body:
        owner = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            else:
                continue
            if name != owner:
                found.add(name)
    return found


def uncalled_public_names(sources: dict[str, str], callers: list[str]) -> list[str]:
    """Top-level public functions and classes of ``sources`` that no caller references."""
    used = set().union(*(references(source) for source in callers))
    return [f"{module}.{node.name}" for module, source in sources.items()
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in used]


def test_scan_finds_an_uncalled_public_name():
    source = ("import math\nclass Used:\n    pass\ndef helper(n):\n    return helper(n - 1)\n"
              "def _private():\n    pass\nx = Used()\n")
    caller = "from mod import Used as U\nmath.helper\n"
    assert uncalled_public_names({"mod": source}, [source]) == ["mod.helper"]
    assert uncalled_public_names({"mod": source}, [caller]) == []


def test_public_names_are_called_outside_the_tests():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC if p.stem != "oracle"}
    callers = [p.read_text(encoding="utf-8") for p in CALLERS]
    assert uncalled_public_names(sources, callers) == []


def unread_members(sources: dict[str, str], callers: list[str]) -> list[str]:
    """Annotated fields and public methods of the classes in ``sources`` that no caller reads."""
    read = {node.attr for source in callers for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    found = []
    for module, source in sources.items():
        for cls in ast.parse(source).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    name = node.target.id
                elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    name = node.name
                else:
                    continue
                if name not in read:
                    found.append(f"{module}.{cls.name}.{name}")
    return found


def test_scan_finds_an_unread_field():
    source = ("class Point:\n    x: int\n    y: int\n    label = 'p'\n"
              "    def norm(self):\n        return self.x\n"
              "    def shift(self):\n        pass\n    def _private(self):\n        pass\n")
    caller = "p.norm()\np.y = 1\n"  # assigning a field is no read
    assert unread_members({"mod": source}, [source, caller]) == ["mod.Point.y", "mod.Point.shift"]


def test_fields_and_methods_are_read_outside_the_tests():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC}
    callers = [p.read_text(encoding="utf-8") for p in CALLERS]
    assert unread_members(sources, callers) == []
