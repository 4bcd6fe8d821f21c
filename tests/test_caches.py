"""Every functools cache in src/switchq decorates a top-level function and is bounded.

A cache on a top-level function is an attribute of its module, which is
where ``benchmarks/workloads.clear_caches`` looks for ``cache_clear``: a
cache on a method or a nested function outlives it and keeps a benchmark
rep warm.  Bounded means a finite ``maxsize`` (a bare ``lru_cache`` has
128), or no parameters to key on, so that a long run cannot grow it
without end.
"""

import ast
import importlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "switchq"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _cache(decorator: ast.expr) -> str | None:
    """'lru_cache' or 'cache' if the decorator is that functools cache, bare, called or as functools.<name>."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name) and target.value.id == "functools":
        name = target.attr
    else:
        name = target.id if isinstance(target, ast.Name) else None
    return name if name in ("lru_cache", "cache") else None


def _bounded(name: str, decorator: ast.expr) -> bool:
    if name == "cache":
        return False
    if not isinstance(decorator, ast.Call):
        return True  # bare @lru_cache: maxsize 128
    sizes = decorator.args[:1] + [k.value for k in decorator.keywords if k.arg == "maxsize"]
    return not any(isinstance(s, ast.Constant) and s.value is None for s in sizes)


def cache_faults(source: str, module: str) -> list[str]:
    """Each functools cache of a module's source that is not top-level, or is unbounded and takes parameters."""
    tree = ast.parse(source)
    top = {id(node) for node in tree.body}
    faults = []
    for node in ast.walk(tree):
        if not isinstance(node, FUNCTIONS):
            continue
        a = node.args
        takes = bool(a.posonlyargs or a.args or a.kwonlyargs or a.vararg or a.kwarg)
        for decorator in node.decorator_list:
            name = _cache(decorator)
            if name and id(node) not in top:
                faults.append(f"{module}.{node.name}: not a top-level function")
            elif name and takes and not _bounded(name, decorator):
                faults.append(f"{module}.{node.name}: unbounded, with parameters")
    return faults


def _sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def test_every_cache_is_top_level_and_bounded():
    assert [fault for module, source in _sources().items() for fault in cache_faults(source, module)] == []


def test_every_cache_is_cleared_through_its_module():
    # what clear_caches calls: the cache_clear of each cached module attribute
    cached = [(module, node.name) for module, source in _sources().items() for node in ast.parse(source).body
              if isinstance(node, FUNCTIONS) and any(_cache(d) for d in node.decorator_list)]
    assert ("mdp", "_variance_table") in cached and ("cli", "build_parser") in cached
    for module, name in cached:
        assert callable(getattr(importlib.import_module(f"switchq.{module}"), name).cache_clear), (module, name)


def test_cache_faults_finds_nested_and_unbounded_caches():
    source = '''
import functools
from functools import cache, lru_cache

@lru_cache(maxsize=None)
def unbounded(x): ...

@functools.cache
def keyed(x): ...

@cache
def constant(): ...

@lru_cache
def default(x): ...

@lru_cache(16)
def sized(x): ...

class Holder:
    @lru_cache(maxsize=8)
    def method(self): ...

def outer():
    @functools.lru_cache(maxsize=4)
    def inner(x): ...
'''
    assert cache_faults(source, "m") == [
        "m.unbounded: unbounded, with parameters",
        "m.keyed: unbounded, with parameters",
        "m.method: not a top-level function",
        "m.inner: not a top-level function",
    ]
