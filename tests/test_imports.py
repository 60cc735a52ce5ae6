"""Source guards: every module-level import in the package is used in its
module, the integer layers make no Fraction, every package name the README
cites exists, and every module-level function, class and assigned name is
named somewhere else in the package."""

from __future__ import annotations

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import lyndonbar

PACKAGE = Path(lyndonbar.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports of ``source`` that nothing else reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_guard_catches_an_unused_import():
    source = "from .words import check_word, lyndon_words\nprint(lyndon_words(3))\n"
    assert unused_imports(source) == ["check_word"]
    assert unused_imports("import os.path\nos.getcwd()\n") == []


def test_package_has_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    for path in modules:
        assert unused_imports(path.read_text()) == [], path.name


# the layers whose structure constants are integers build them without
# Fraction, and the bar kernels, verify and the CLI make none either
INTEGER_LAYERS = ("words", "freelie", "ihara", "colie", "bar", "verify", "cli")


def fraction_calls(source: str) -> list[int]:
    """Line numbers of ``Fraction(...)`` calls in ``source``, outside annotations."""
    tree = ast.parse(source)
    in_annotations = set()
    for node in ast.walk(tree):
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if annotation is not None:
                in_annotations.update(map(id, ast.walk(annotation)))
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in in_annotations:
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "Fraction":
            lines.append(node.lineno)
    return sorted(lines)


def test_guard_catches_a_fraction_call():
    assert fraction_calls("from fractions import Fraction\nONE = Fraction(1)\n") == [2]
    assert fraction_calls("import fractions\nHALF = fractions.Fraction(1, 2)\n") == [2]
    source = "def f(x: Fraction) -> dict[str, Fraction]:\n    y: Fraction = x\n    return {}\n"
    assert fraction_calls(source) == []


def test_integer_layers_make_no_fraction():
    for name in INTEGER_LAYERS:
        assert fraction_calls((PACKAGE / f"{name}.py").read_text()) == [], name


def stale_references(text: str) -> list[str]:
    """Backticked ``module.name`` and ``_private`` names in ``text`` that the
    package does not define; a trailing call like ``f(x, y)`` is ignored, and
    so are fenced code blocks."""
    modules = {name: importlib.import_module(f"lyndonbar.{name}") for name in MODULES}
    stale = []
    prose = re.sub(r"```.*?```", "", text, flags=re.S)
    for span in re.findall(r"`([^`]+)`", prose):
        match = re.fullmatch(r"([A-Za-z_][\w.]*)(\(.*\))?", span)
        if not match:
            continue
        parts = match.group(1).split(".")
        if parts[0] == "lyndonbar":
            parts = parts[1:]
        if parts and parts[0] in modules:
            obj = modules[parts[0]]
            for name in parts[1:]:
                obj = getattr(obj, name, None)
            found = obj is not None
        elif len(parts) == 1 and parts[0].startswith("_"):
            found = any(hasattr(module, parts[0]) for module in modules.values())
        else:
            continue
        if not found:
            stale.append(span)
    return stale


def test_guard_catches_a_stale_readme_reference():
    text = "`bar.hain_projector`, `_hain_word(p, w)`, `lyndonbar.lifts.VARIANTS`, `lift W`"
    assert stale_references(text) == []
    assert stale_references("```sh\nlyndonbar lift 0011\n```\n`_no_such_helper`") == [
        "_no_such_helper"
    ]
    text = "`bar.no_such_kernel`, `_no_such_helper(t)`, `lyndonbar.lifts.NOPE`, `tests/x.py`"
    assert stale_references(text) == [
        "bar.no_such_kernel",
        "_no_such_helper(t)",
        "lyndonbar.lifts.NOPE",
    ]


def test_readme_names_only_what_the_package_defines():
    assert stale_references(README.read_text()) == []



def names_read(tree: ast.AST) -> Counter:
    """How often each name is read, imported or looked up as an attribute in ``tree``."""
    counts: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.alias):
            counts[node.name] += 1
    return counts


def defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function or class, or the
    plain names an assignment binds (dunders like ``__version__`` excepted)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else []
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
    names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def unnamed_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each module-level function, class and assigned name in
    ``sources`` (module name -> source) that nothing outside its own statement
    names."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    total = sum(map(names_read, trees.values()), Counter())
    return [
        f"{module}.{name}"
        for module, tree in trees.items()
        for node in tree.body
        for name in defined_names(node)
        if total[name] == names_read(node)[name]
    ]


def test_guard_catches_a_dead_definition():
    sources = {
        "a": "class Kept:\n    pass\n\ndef used():\n    return dead\n\n"
        "def dead():\n    return dead()\n",
        "b": "from .a import used\n\nprint(a.Kept)\n",
    }
    assert unnamed_definitions(sources) == []
    del sources["b"]
    assert unnamed_definitions(sources) == ["a.Kept", "a.used"]
    sources["a"] = sources["a"].replace("return dead\n", "return 1\n")
    assert unnamed_definitions(sources) == ["a.Kept", "a.used", "a.dead"]
    # module-level assignments, annotated and unpacked ones too
    sources = {
        "a": "ONE = 1\nTree = tuple  # a note\nK: int = ONE\nLO, HI = 0, 1\n"
        "__version__ = '0'\n\ndef f(x: K):\n    return HI\n",
        "b": "from .a import f\n",
    }
    assert unnamed_definitions(sources) == ["a.Tree", "a.LO"]
    sources["b"] += "print(a.Tree, LO)\n"
    assert unnamed_definitions(sources) == []


def test_every_definition_is_named_outside_itself():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unnamed_definitions(sources) == []
