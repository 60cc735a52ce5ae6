"""No module-level container in the package is written inside a function.

So every memo is a ``functools.lru_cache``: those are found and cleared
before each cold benchmark round, where a plain-dict memo would stay warm.
And a repeated run adds no entry to them.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import lyndonbar
from lyndonbar.verify import run_suites

PACKAGE = Path(lyndonbar.__file__).resolve().parent

CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
CONTAINER_NODES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
MUTATORS = {
    "setdefault", "update", "pop", "popitem", "clear",
    "append", "extend", "insert", "remove", "add", "discard",
}


def _is_container(value) -> bool:
    if isinstance(value, CONTAINER_NODES):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in CONTAINER_CALLS
    return False


def module_containers(tree: ast.Module) -> set[str]:
    """Names bound at module level to a mutable container."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and _is_container(node.value):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and node.value is not None and _is_container(node.value):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
    return names


def _local_names(func) -> set[str]:
    """Names a function (with the functions nested in it) binds locally."""
    declared = {
        name for node in ast.walk(func) if isinstance(node, (ast.Global, ast.Nonlocal))
        for name in node.names
    }
    bound = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            bound.add(node.id)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
    return bound - declared


def _written_name(node):
    """The container name a statement or call writes to, if any."""
    targets = []
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    for target in targets:
        if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
            yield target.value.id
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in MUTATORS
        and isinstance(node.func.value, ast.Name)
    ):
        yield node.func.value.id


def written_globals(source: str) -> list[tuple[str, str]]:
    """(function, container) for each module-level container a function writes."""
    tree = ast.parse(source)
    containers = module_containers(tree)
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        local = _local_names(func)
        for node in ast.walk(func):
            for name in _written_name(node):
                if name in containers and name not in local:
                    found.append((getattr(func, "name", "<lambda>"), name))
    return sorted(set(found))


PLANTED = '''
_MEMO = {}
SEEN: list = []


def hain(word):
    if word not in _MEMO:
        _MEMO[word] = len(word)
    return _MEMO[word]


def counted(word):
    SEEN.append(word)
    return _MEMO.setdefault(word, 0)


def shadowed():
    _MEMO = {}
    _MEMO["x"] = 1
    return _MEMO
'''


def test_guard_catches_a_planted_dict_memo():
    assert written_globals(PLANTED) == [
        ("counted", "SEEN"),
        ("counted", "_MEMO"),
        ("hain", "_MEMO"),
    ]
    assert written_globals("TABLE = {}\n\ndef f(k):\n    return TABLE.get(k)\n") == []


def test_package_writes_no_module_level_container():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        assert written_globals(path.read_text()) == [], path.name


def package_caches() -> dict:
    """Every ``lru_cache`` a package module defines, by qualified name."""
    caches = {}
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        modname = f"lyndonbar.{path.stem}"
        module = importlib.import_module(modname)
        for name, obj in vars(module).items():
            if callable(getattr(obj, "cache_info", None)) and obj.__module__ == modname:
                caches[f"{modname}.{name}"] = obj
    return caches


def test_a_repeated_lift_suite_grows_no_cache():
    caches = package_caches()
    assert "lyndonbar.bar._slot" in caches
    run_suites(["lifts"], max_weight=4)
    before = {name: cache.cache_info().currsize for name, cache in caches.items()}
    run_suites(["lifts"], max_weight=4)
    after = {name: cache.cache_info().currsize for name, cache in caches.items()}
    assert after == before
