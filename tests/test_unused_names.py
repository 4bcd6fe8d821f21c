"""Every name in src/switchq is used by the program, every setting in it is set by the program, every
import in it is read by its module, and no module of it reads another's private names.

Names are the top-level functions, classes and assigned names, and the
methods of such a class.

A name counts as used when some module of src/ or benchmarks/ refers to it
outside the lines of its own definition: as a bare name, in a from-import,
or as an attribute of a switchq module (``mdp.build_kernel``, not
``args.policy_id``).  A method counts as used when it is read as an
attribute of anything (``h.slack(point)``).  Dunders (``__version__``) and
overrides of a base-class method (``cli._Parser.error``) are read by Python,
by tools or by the base class, so they are not checked.  Code and constants
that only the tests read belong in the tests.

A setting is a defaulted parameter of a function or method, or a field of a
dataclass.  It counts as set when some call in src/ or benchmarks/ of the
function, method or class, found by the name it is called by, passes it by
keyword or by position.  A ``*args`` counts as one position, and a
``**kwargs`` sets every keyword.  A setting that only the tests set is a constant.

An import is read when its module uses the name it binds (``np`` of
``import numpy as np``) outside the import; ``from __future__`` imports
are read by the compiler.

A private name is one with a leading underscore that is not a dunder.  A
module reads another's private name as an attribute of that module
(``sim._ROWS``) or in a from-import (``from .sim import _ROWS``); what a
module keeps private is its own layout, so other modules go through its
public functions.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "switchq"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _references(path: Path, tree: ast.AST):
    """(name, file, line) of each bare name, from-import and attribute of a switchq module."""
    modules = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.module == "switchq" or (node.level and node.module is None)) for alias in node.names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, path, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            yield node.attr, path, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, path, node.lineno) for alias in node.names)


def _used(node: ast.AST, name: str, path: Path, references) -> bool:
    own = range(node.lineno, node.end_lineno + 1)
    return any(ref == name and not (where == path and line in own) for ref, where, line in references)


def _assigned(node: ast.AST) -> list[str]:
    """The names a module-level assignment binds, dunders left out."""
    if not isinstance(node, (ast.Assign, ast.AnnAssign)):
        return []
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [n.id for target in targets for n in ast.walk(target)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store) and not n.id.startswith("__")]


def _trees() -> dict[Path, ast.AST]:
    return {p: ast.parse(p.read_text(encoding="utf-8"))
            for d in (ROOT / "src", ROOT / "benchmarks") for p in sorted(d.rglob("*.py"))}


def unused_names() -> list[str]:
    trees = _trees()
    references = [ref for path, tree in trees.items() for ref in _references(path, tree)]
    attributes = [(node.attr, path, node.lineno) for path, tree in trees.items()
                  for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"switchq.{path.stem}")
        for node in trees[path].body:
            names = [node.name] if isinstance(node, FUNCTIONS + (ast.ClassDef,)) else _assigned(node)
            unused += [f"{path.stem}.{name}" for name in names if not _used(node, name, path, references)]
            if isinstance(node, ast.ClassDef):
                bases = getattr(module, node.name).__mro__[1:]
                unused += [f"{path.stem}.{node.name}.{method.name}" for method in node.body
                           if isinstance(method, FUNCTIONS) and not method.name.startswith("__")
                           and not any(hasattr(base, method.name) for base in bases)
                           and not _used(method, method.name, path, attributes)]
    return unused


def _calls(trees) -> dict[str, list[tuple[int, set]]]:
    """Called name -> (positional arguments, keywords) of each call; a **kwargs is the keyword None."""
    calls: dict[str, list[tuple[int, set]]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append((len(node.args), {k.arg for k in node.keywords}))
    return calls


def _is_dataclass(node: ast.ClassDef) -> bool:
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)


def _settings(tree: ast.AST):
    """(called name, setting, its position in a call or None if keyword-only) of a module's settings."""
    for node in ast.walk(tree):
        if isinstance(node, FUNCTIONS):
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args]
            bound = 1 if params[:1] in (["self"], ["cls"]) else 0  # a method call passes it before the parentheses
            for i in range(len(params) - len(a.defaults), len(params)):
                yield node.name, params[i], i - bound
            yield from ((node.name, p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields = [n.target.id for n in node.body if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]
            yield from ((node.name, f, i) for i, f in enumerate(fields))


def unset_settings() -> list[str]:
    trees = _trees()
    calls = _calls(trees)
    return [f"{path.stem}.{name}.{setting}" for path in sorted(PACKAGE.glob("*.py"))
            for name, setting, position in _settings(trees[path])
            if not any(setting in keywords or None in keywords or (position is not None and position < n_args)
                       for n_args, keywords in calls.get(name, ()))]


def test_every_top_level_name_in_src_is_used_outside_the_tests():
    assert unused_names() == []


def test_every_setting_in_src_is_set_by_the_program():
    assert unset_settings() == []


def unread_imports() -> list[str]:
    """Each name a module of src/switchq imports and never reads, as 'module.name'."""
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread += [f"{path.stem}.{alias.asname or alias.name.partition('.')[0]}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
                   for alias in node.names if (alias.asname or alias.name.partition(".")[0]) not in read]
    return unread


def test_every_import_in_src_is_read_by_its_module():
    assert unread_imports() == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_reads() -> list[str]:
    """Each private name that one switchq module reads of another, as 'module reads other.name'."""
    reads = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        modules = {alias.asname or alias.name: alias.name for node in imports  # from . import sim as s: s -> sim
                   if node.module == "switchq" or (node.level and node.module is None) for alias in node.names}
        names = [(node.module.removeprefix("switchq."), alias.name) for node in imports
                 if node.module and (node.level or node.module.startswith("switchq.")) for alias in node.names]
        names += [(modules[node.value.id], node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules]
        reads.update(f"{path.stem} reads {module}.{name}" for module, name in names
                     if module != path.stem and _private(name))
    return sorted(reads)


def test_no_module_reads_private_names_of_another():
    assert private_reads() == []
