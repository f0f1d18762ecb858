"""Source hygiene: no unused imports, no assert, and no name or field that only the tests use.

No linter ships with the project, so the checks are small AST scans. The
package holds no ``assert`` statement, since ``python -O`` strips them, and
no ``isinstance(..., bool)`` outside ``qsim.py``, whose ``_integer`` and
``_real`` decide what counts as an integer or a real input, and no
``float(...)`` call outside ``qsim.py`` and ``oracle.py``, since ``float``
reads a bool or a numeric str as a number. ``qsim._choice``
decides which str is one of a fixed set, so an ``isinstance(..., str)``
elsewhere checks only a free-form string listed in ``STR_CHECKED``.
``oracle.py`` imports nothing from ``noise`` but ``NoiseModel``, so that
the two evolution paths share no channel. A name bound by a module-level
``import`` or ``from ... import`` in the package, the tests or the bench
must be read somewhere in the same module
(as a name, as the base of an attribute, or inside a quoted annotation);
``from __future__`` imports are exempt. Every top-level public function and
class of the package must be referenced by the package or the bench, not
only by tests, the acceptance gate included; ``oracle.py`` is exempt, since
it is the reference the tests compare against. Every top-level private
function, class and constant of the package, ``oracle.py`` included, must
be read by its own module, or through an import or an attribute by the
package or the bench.
Every annotated field, attribute a method stores on ``self`` and public
method of a class of the package, ``oracle.py`` included, must be read as
an attribute by the package, the bench or the acceptance gate,
except a method that a base class imported from outside the package
declares abstract: code outside the package calls it, from C too (numpy's
``PCG64`` calls ``qsim._SeedWords.generate_state``).
Every defaulted parameter of a top-level public function of the package,
``oracle.py`` exempt, must be passed, by position or by keyword, by some
call in the package, the bench or the acceptance gate, since only tests
pass ``build_protocol(..., countermeasures=False)``.
The field scan matches attribute names only, so it misses an unread
field when some other read attribute has the same name (as
``ProtocolCircuit.protocol`` was missed, because ``ProtocolRun.protocol``
is read).
"""
import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted(ROOT.glob("src/lgadroit/*.py"))
BENCH = sorted(ROOT.glob("bench/*.py"))
FILES = sorted([*SRC, *ROOT.glob("tests/*.py"), *BENCH])
# the code whose use keeps a public name in the package
PRODUCT = [*SRC, *BENCH]
# the code whose reads keep a member, and whose calls keep a defaulted parameter
CALLERS = [*PRODUCT, ROOT / "tests" / "test_acceptance.py"]


def assert_statements(source: str) -> list[int]:
    """Lines of the ``assert`` statements in ``source``; ``python -O`` strips them."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_scan_finds_an_assert_statement():
    source = "def f(x):\n    if x:\n        assert x > 0, 'why'\n    return x  # assert\n"
    assert assert_statements(source) == [3]


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_package_has_no_assert_statements(path):
    # an invariant check raises InvariantError or ValidationError, which -O keeps
    assert assert_statements(path.read_text(encoding="utf-8")) == []


def type_checks(source: str, name: str) -> list[tuple[int, str]]:
    """Line and checked expression of each ``isinstance(..., name)`` call in ``source``,
    ``name`` in a tuple of types too."""
    return [(node.lineno, ast.unparse(node.args[0])) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2
            and any(isinstance(n, ast.Name) and n.id == name for n in ast.walk(node.args[1]))]


def test_scan_finds_a_bool_check():
    source = ("def f(x):\n    if isinstance(x, bool):\n        return bool(x)\n"
              "    ok = isinstance(x, int) and 'isinstance(x, bool)'  # isinstance(x, bool)\n"
              "    return ok or isinstance(x[0], (float, bool))\n")
    assert type_checks(source, "bool") == [(2, "x"), (5, "x[0]")]


@pytest.mark.parametrize("path", [p for p in SRC if p.name != "qsim.py"],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_only_qsim_decides_what_is_a_number(path):
    # qsim._integer and qsim._real hold the one rule for integer and real inputs
    assert type_checks(path.read_text(encoding="utf-8"), "bool") == []


def float_calls(source: str) -> list[int]:
    """Lines of the ``float(...)`` calls in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "float"]


def test_scan_finds_a_float_call():
    source = ("x = float(y)\nz = 'float(y)'  # float(y)\n"
              "w = np.float64(y) + float(\n    y)\nv: float = 1.0\n")
    assert float_calls(source) == [1, 3]


@pytest.mark.parametrize("path", [p for p in SRC if p.name not in ("qsim.py", "oracle.py")],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_only_qsim_turns_an_input_into_a_float(path):
    # float() reads True as 1.0 and "0.5" or b"0.5" as 0.5; qsim._real refuses all three
    assert float_calls(path.read_text(encoding="utf-8")) == []


# free-form strings, not one of a fixed set: a kick's measurement symbol and the out path
STR_CHECKED = {"noise.py": {"kick[0]"}, "protocols.py": {"self.out"}}


@pytest.mark.parametrize("path", [p for p in SRC if p.name != "qsim.py"],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_only_qsim_decides_what_is_a_choice(path):
    # qsim._choice holds the one rule for a str that must be one of a fixed set
    checked = {expr for _, expr in type_checks(path.read_text(encoding="utf-8"), "str")}
    assert checked <= STR_CHECKED.get(path.name, set())


def noise_imports(source: str) -> list[str]:
    """What ``source`` imports of ``lgadroit.noise`` beyond ``NoiseModel``: names, or the module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            # a relative import is one of the package's: ".noise", or "." alone
            module = ("lgadroit." if node.level else "") + (node.module or "")
            if module == "lgadroit.noise":
                found += [alias.name for alias in node.names if alias.name != "NoiseModel"]
            elif module.rstrip(".") == "lgadroit":
                found += [alias.name for alias in node.names if alias.name == "noise"]
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name == "lgadroit.noise"]
    return found


def test_scan_finds_a_noise_import():
    source = ("from .noise import NoiseModel, _channels\nfrom lgadroit.noise import IDEAL\n"
              "from . import noise\nimport lgadroit.noise\nfrom .qsim import noise\n"
              "from lgadroit.noise import NoiseModel\n")
    assert noise_imports(source) == ["_channels", "IDEAL", "noise", "lgadroit.noise"]


def test_oracle_imports_only_the_noise_model_from_noise():
    # the oracle writes its own channels: a channel it shared with the engine would
    # pass every engine-vs-oracle gate even when wrong
    oracle = ROOT / "src" / "lgadroit" / "oracle.py"
    assert noise_imports(oracle.read_text(encoding="utf-8")) == []


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
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
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
    callers = [p.read_text(encoding="utf-8") for p in PRODUCT]
    assert uncalled_public_names(sources, callers) == []


def unread_private_names(sources: dict[str, str], readers: list[str]) -> list[str]:
    """Top-level private functions, classes and constants of ``sources`` that nothing reads.

    A bare name reads its own module's global, so another module's reads
    count only through an import or an attribute: ``oracle._readout_flip``
    does not keep a ``noise._readout_flip`` alive.
    """
    elsewhere = {node.attr if isinstance(node, ast.Attribute) else node.name.rpartition(".")[2]
                 for source in readers for node in ast.walk(ast.parse(source))
                 if isinstance(node, (ast.Attribute, ast.alias))}
    found = []
    for module, source in sources.items():
        read = references(source) | elsewhere
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            found += [f"{module}.{name}" for name in names
                      if name.startswith("_") and not name.startswith("__") and name not in read]
    return found


def test_scan_finds_an_unread_private_name():
    source = ("_USED, _SPARE = 1, 2\n_LONE: int = 3\n__all__ = []\n"
              "def _helper(n):\n    return _helper(n - 1) + _USED\n"
              "class _Kept:\n    pass\n")
    namesake = "def _helper():\n    pass\nprint(_helper(), _Kept)\n"  # its own _helper
    assert unread_private_names({"mod": source}, [namesake]) == [
        "mod._SPARE", "mod._LONE", "mod._helper", "mod._Kept"]
    assert unread_private_names({"mod": source}, ["from mod import _Kept\nmod._LONE\n"]) == [
        "mod._SPARE", "mod._helper"]


def test_private_names_are_read_outside_the_tests():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC}
    readers = [p.read_text(encoding="utf-8") for p in [*SRC, *BENCH]]
    assert unread_private_names(sources, readers) == []


def foreign_abstract_methods(tree: ast.Module, cls: ast.ClassDef) -> set[str]:
    """Methods that ``cls``'s bases declare abstract, for bases imported from outside the package.

    A base resolves only through the module's own ``from X import Name``.
    """
    imported = {alias.asname or alias.name: (node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.partition(".")[0] != "lgadroit" for alias in node.names}
    abstract = set()
    for base in cls.bases:
        if isinstance(base, ast.Name) and base.id in imported:
            module, name = imported[base.id]
            abstract |= getattr(getattr(importlib.import_module(module), name),
                                "__abstractmethods__", frozenset())
    return abstract


def unread_members(sources: dict[str, str], callers: list[str]) -> list[str]:
    """Fields and public methods of the classes in ``sources`` that no caller reads.

    A field is annotated in the class body or stored on ``self`` by a
    method. A method that a foreign base declares abstract is exempt: its
    callers live outside the package.
    """
    read = {node.attr for source in callers for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            exempt = foreign_abstract_methods(tree, cls)
            members = {}  # an ordered set
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    members[node.target.id] = None
                elif isinstance(node, ast.FunctionDef):
                    if not node.name.startswith("_") and node.name not in exempt:
                        members[node.name] = None
                    members.update((t.attr, None) for t in ast.walk(node)
                                   if isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store)
                                   and isinstance(t.value, ast.Name) and t.value.id == "self")
            found += [f"{module}.{cls.name}.{name}" for name in members if name not in read]
    return found


def test_scan_finds_an_unread_field():
    source = ("class Point:\n    x: int\n    y: int\n    label = 'p'\n"
              "    def norm(self):\n        return self.x\n"
              "    def shift(self):\n        pass\n    def _private(self):\n        pass\n")
    caller = "p.norm()\np.y = 1\n"  # assigning a field is no read
    assert unread_members({"mod": source}, [source, caller]) == ["mod.Point.y", "mod.Point.shift"]


def test_scan_finds_an_attribute_stored_on_self_and_never_read():
    source = ("class Err(Exception):\n    def __init__(self, n):\n        self.lineno = n\n"
              "        self.kept = self.lineno_seen = n\n        self.spans[0] = n\n"
              "    def again(self, n):\n        self.lineno = n\n"
              "    def _pair(self):\n        return self.kept, self.spans\n")
    assert unread_members({"mod": source}, [source]) == [
        "mod.Err.lineno", "mod.Err.lineno_seen", "mod.Err.again"]


def test_scan_exempts_only_abstract_methods_of_a_foreign_base():
    source = ("from numpy.random.bit_generator import ISeedSequence as Seeds\n"
              "from lgadroit.qsim import _SeedWords\n"
              "class Words(Seeds):\n    def generate_state(self, n, dtype):\n        pass\n"
              "    def spawn(self, n):\n        pass\n"
              "class Plain:\n    def generate_state(self, n, dtype):\n        pass\n"
              "class Local(_SeedWords):\n    def generate_state(self, n, dtype):\n        pass\n")
    # numpy calls Words.generate_state from C; the sibling spawn and the namesakes stay flagged
    assert unread_members({"mod": source}, [source]) == [
        "mod.Words.spawn", "mod.Plain.generate_state", "mod.Local.generate_state"]


def test_fields_and_methods_are_read_outside_the_tests():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC}
    callers = [p.read_text(encoding="utf-8") for p in CALLERS]
    assert unread_members(sources, callers) == []


def unpassed_defaults(sources: dict[str, str], callers: list[str]) -> list[str]:
    """Defaulted parameters of top-level public functions that no caller passes.

    A call is matched on the function's name, as a name or an attribute,
    outside the function's own definition. It passes a parameter by
    keyword, or by position when it has more positional arguments (a
    ``*args`` counts as one or more) than the parameter's index.
    """
    passed: dict[str, tuple[float, set[str]]] = {}  # name -> (most positional args, keywords)
    for source in callers:
        for stmt in ast.parse(source).body:
            owner = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name is None or name == owner:
                    continue
                most, keywords = passed.get(name, (0, set()))
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                positional = float("inf") if starred else len(node.args)
                passed[name] = (max(most, positional),
                                keywords | {k.arg for k in node.keywords})
    found = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = node.args
            ordered = [*args.posonlyargs, *args.args]
            defaulted = [(i, a.arg) for i, a in enumerate(ordered)
                         if i >= len(ordered) - len(args.defaults)]
            defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            most, keywords = passed.get(node.name, (0, set()))
            found += [f"{module}.{node.name}.{arg}" for i, arg in defaulted
                      if arg not in keywords and (i is None or most <= i)]
    return found


def test_scan_finds_an_unpassed_default():
    source = ("def f(a, b=1, c=2, *, d=3, e=4, g):\n    return f(a, b, c, d=d, g=g)\n"
              "def _private(x=1):\n    pass\n"
              "class K:\n    def method(self, y=1):\n        pass\n")
    assert unpassed_defaults({"mod": source}, [source]) == [
        "mod.f.b", "mod.f.c", "mod.f.d", "mod.f.e"]
    caller = "mod.f(1, 2, g=0)\nf(e=5, g=0)\n"
    assert unpassed_defaults({"mod": source}, [caller]) == ["mod.f.c", "mod.f.d"]
    assert unpassed_defaults({"mod": source}, ["f(*xs, d=1)\n"]) == ["mod.f.e"]


def test_defaulted_parameters_are_passed_outside_the_tests():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC if p.stem != "oracle"}
    callers = [p.read_text(encoding="utf-8") for p in CALLERS]
    assert unpassed_defaults(sources, callers) == []
