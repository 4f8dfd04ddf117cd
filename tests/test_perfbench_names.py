"""Every surfep name the benchmark reads exists, every call it makes
binds, and the one layout fact it reads still holds.

perfbench/tracing.py and perfbench/workloads.py call into surfep by module
attribute (``solver.reverify_certificate``, ``serialize.certificate_to_json``,
...) and tracing.WRAPPED names the functions ``--trace 1`` wraps.  Their own
tests import numpy and run outside this suite, so these names and calls are
read from the source with ast alone: a pruned library name, or a pruned or
added parameter, fails here first.  So is perfbench/run.py's ``_OUTCOME``
pattern, which finds a certificate's outcome in the bytes surfep writes.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import surfep as s
from surfep.embedding import SubgroupSpec
from surfep.serialize import canonical_json, certificate_to_json

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FILES = ("tracing.py", "workloads.py")


def parse(path):
    """The AST of path and the names it binds by ``from surfep import ...``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "surfep"
        for alias in node.names
    }
    return tree, modules


def surfep_reads(path):
    """(module, attribute) for every ``module.attribute`` read in path whose
    module is bound by ``from surfep import ...``, plus tracing.WRAPPED."""
    tree, modules = parse(path)
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


def surfep_calls(path):
    """(line, module, attribute, number of positional arguments, keyword
    names) for every ``module.attribute(...)`` call in path whose module is
    bound by ``from surfep import ...``."""
    tree, modules = parse(path)
    calls = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in modules
        ):
            continue
        # *args and **kwargs have no length in the source to bind
        assert not any(isinstance(a, ast.Starred) for a in node.args), node.lineno
        assert all(k.arg is not None for k in node.keywords), node.lineno
        calls.append((
            node.lineno,
            node.func.value.id,
            node.func.attr,
            len(node.args),
            [k.arg for k in node.keywords],
        ))
    return calls


@pytest.mark.parametrize("filename", FILES)
def test_every_call_binds(filename):
    calls = surfep_calls(PERFBENCH / filename)
    assert calls
    unbound = []
    for line, module, name, npositional, keywords in calls:
        fn = getattr(importlib.import_module(f"surfep.{module}"), name)
        try:
            inspect.signature(fn).bind(*[None] * npositional, **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"{filename}:{line} {module}.{name}: {exc}")
    assert not unbound, f"calls that no longer bind: {unbound}"


def outcome_pattern():
    """The byte pattern perfbench/run.py compiles as _OUTCOME."""
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_OUTCOME" for t in node.targets
        ):
            return ast.literal_eval(node.value.args[0])
    raise AssertionError("perfbench/run.py defines no _OUTCOME")


def test_outcome_pattern_finds_written_outcomes():
    """A proper gamma-level run and a relative run that stops (not_reduced),
    written as surfep writes certificates."""
    c2 = s.cyclic_group(2)
    g = 64
    beta = s.make_surface_tuple(c2, [1] + [0] * (g - 1), [0] * g)
    ep = s.make_split_ep(c2, c2, s.trivial_action(c2, c2), beta)
    nu = s.make_surface_tuple(c2, [0] + [i % 2 for i in range(1, g)], [0] * g)
    certs = [
        s.solve_gamma_level(ep),
        s.solve_relative(ep, SubgroupSpec(c2, nu, s.subgroup_closure(c2, []))),
    ]
    pattern = re.compile(outcome_pattern())
    for cert, outcome in zip(certs, ("proper", "not_reduced")):
        data = canonical_json(certificate_to_json(cert, "p", "h")).encode()
        found = pattern.search(data)
        assert found is not None and found.group(1).decode() == outcome, data
