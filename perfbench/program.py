"""Load the lyndonbar package from this checkout's ``src/`` and manage its caches.

Every cold measurement starts from empty caches.  The caches are found by
scanning the loaded ``lyndonbar`` modules (and the classes they define) for
``functools.lru_cache`` wrappers, so a cache that a later change adds is
cleared without touching this file.
"""

from __future__ import annotations

import gc
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "lyndonbar"

# The package's modules, which are the benchmark's layers; cli is the entry point.
LAYERS = ("words", "freelie", "ihara", "colie", "dgcore", "bar", "lifts", "linalg", "verify", "cli")


class ProgramMissing(RuntimeError):
    """Raised when the checkout holds no lyndonbar sources to measure."""


class CacheLeak(AssertionError):
    """Raised when a cache still holds entries after it was cleared."""


def _is_cache(obj) -> bool:
    return callable(getattr(obj, "cache_clear", None)) and callable(
        getattr(obj, "cache_info", None)
    )


class Program:
    """One fresh import of the package: its layer modules and every cache in them."""

    def __init__(self) -> None:
        pkg_dir = SRC / PACKAGE
        if not (pkg_dir / "__init__.py").is_file():
            raise ProgramMissing(f"no {PACKAGE} sources under {SRC}")
        for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        self.package = importlib.import_module(PACKAGE)
        if Path(self.package.__file__).resolve().parent != pkg_dir.resolve():
            raise ProgramMissing(f"{PACKAGE} was imported from {self.package.__file__}")
        self.layers = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}
        self.modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        # found before any tracing wrapper replaces a module attribute
        self.caches = self._find_caches()
        # when a dict, clear_caches first adds each cache's statistics to it
        self.tally: dict | None = None

    def _find_caches(self) -> dict:
        found = {}
        for modname, mod in self.modules.items():
            for name, obj in vars(mod).items():
                owners = [(name, obj)]
                if isinstance(obj, type) and obj.__module__ == modname:
                    owners += [(f"{name}.{k}", v) for k, v in vars(obj).items()]
                for qual, cand in owners:
                    if _is_cache(cand) and getattr(cand, "__module__", None) == modname:
                        found.setdefault(f"{modname}.{qual}", cand)
        return found

    def harvest(self) -> None:
        """Add each cache's hits and misses to ``tally``, and its largest currsize."""
        if self.tally is None:
            return
        for name, cache in self.caches.items():
            info = cache.cache_info()
            hits, misses, size = self.tally.get(name, (0, 0, 0))
            self.tally[name] = (hits + info.hits, misses + info.misses, max(size, info.currsize))

    def clear_caches(self) -> None:
        """Empty every cache and collect garbage, then check that all are empty."""
        self.harvest()
        for cache in self.caches.values():
            cache.cache_clear()
        gc.collect()
        full = [n for n, c in self.caches.items() if c.cache_info().currsize]
        if full:
            raise CacheLeak(f"caches not empty after clearing: {full}")
