"""Every surfep name the benchmark reads exists.

perfbench/tracing.py and perfbench/workloads.py call into surfep by module
attribute (``solver.reverify_certificate``, ``serialize.certificate_to_json``,
...) and tracing.WRAPPED names the functions ``--trace 1`` wraps.  Their own
tests import numpy and run outside this suite, so these names are read from
the source with ast alone: a pruned library name fails here first.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FILES = ("tracing.py", "workloads.py")


def surfep_reads(path):
    """(module, attribute) for every ``module.attribute`` read in path whose
    module is bound by ``from surfep import ...``, plus tracing.WRAPPED."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "surfep"
        for alias in node.names
    }
    reads = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            for module, names in ast.literal_eval(node.value).items():
                reads.update((module, name) for name in names)
    return reads


@pytest.mark.parametrize("filename", FILES)
def test_every_name_exists(filename):
    reads = surfep_reads(PERFBENCH / filename)
    assert reads
    missing = sorted(
        f"{module}.{name}"
        for module, name in reads
        if not hasattr(importlib.import_module(f"surfep.{module}"), name)
    )
    assert not missing, f"{filename} reads names surfep lacks: {missing}"
