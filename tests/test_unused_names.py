"""Every top-level function, class and assigned name in src/switchq, and every method of such a class, is used by the program.

A name counts as used when some module of src/ or benchmarks/ refers to it
outside the lines of its own definition: as a bare name, in a from-import,
or as an attribute of a switchq module (``mdp.build_kernel``, not
``args.policy_id``).  A method counts as used when it is read as an
attribute of anything (``h.slack(point)``).  Dunders (``__version__``) and
overrides of a base-class method (``cli._Parser.error``) are read by Python,
by tools or by the base class, so they are not checked.  Code and constants
that only the tests read belong in the tests.
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


def unused_names() -> list[str]:
    trees = {p: ast.parse(p.read_text(encoding="utf-8"))
             for d in (ROOT / "src", ROOT / "benchmarks") for p in sorted(d.rglob("*.py"))}
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


def test_every_top_level_name_in_src_is_used_outside_the_tests():
    assert unused_names() == []
