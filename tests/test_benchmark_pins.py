"""Every switchq name the benchmark pins resolves in src/switchq.

The benchmark (benchmarks/) traces the layers named in tracer.LAYERS,
refuses to run without workloads.ENTRY_POINTS, and its self-test wraps
bindings such as cli.region_from_vertices.  This test reads those files as
source, without importing them, so a deleted or renamed pin fails here in
milliseconds rather than in the benchmark's own run.
"""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


def _tree(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _constant(name: str, assigned: str):
    """The literal value a benchmark module assigns to a top-level name."""
    for node in _tree(name).body:
        targets = [node.target] if isinstance(node, ast.AnnAssign) else getattr(node, "targets", [])
        if any(isinstance(t, ast.Name) and t.id == assigned for t in targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} assigns no {assigned}")


def _module_attributes(name: str) -> set[str]:
    """'module.attr' for each attribute a benchmark module reads of a module it imports from switchq."""
    tree = _tree(name)
    modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "switchq" for alias in node.names}
    return {f"{modules[node.value.id]}.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules}


def _missing(names) -> list[str]:
    missing = []
    for name in sorted(names):
        module, attr = name.removeprefix("switchq.").rsplit(".", 1)
        if not hasattr(importlib.import_module(f"switchq.{module}"), attr):
            missing.append(name)
    return missing


def test_every_traced_layer_resolves():
    layers = _constant("tracer.py", "LAYERS")
    assert len(layers) > 10
    assert _missing(layers) == []


def test_every_entry_point_resolves():
    entries = _constant("workloads.py", "ENTRY_POINTS")
    assert entries and all(e.startswith("switchq.") for e in entries)
    assert _missing(entries) == []


def test_every_switchq_attribute_the_benchmark_reads_resolves():
    # selftest.py wraps cli.region_from_vertices, experiments.corner_points and policies.fbdc_corner_map
    read = {a for name in ("selftest.py", "workloads.py") for a in _module_attributes(name)}
    assert {"cli.region_from_vertices", "experiments.corner_points", "policies.fbdc_corner_map"} <= read
    assert _missing(read) == []
