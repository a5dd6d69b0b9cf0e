"""The package names the benchmark in ``perfbench/`` relies on.

``perfbench/tracer.py`` wraps the functions it lists in ``TIMED``,
``COUNTED`` and ``POOL_TASKS`` by attribute path, and
``perfbench/rep.py`` calls package functions directly.  A rename in the
package breaks the benchmark only when it runs; these tests make it
fail here instead.
"""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import cubicsd
from cubicsd import cli, construct, dataset, equiv, gf2, perm, search

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
MODULES = {
    "cli": cli,
    "construct": construct,
    "dataset": dataset,
    "equiv": equiv,
    "gf2": gf2,
    "perm": perm,
    "search": search,
}

# Methods rep.py calls on objects the package returns.
METHODS = [
    (construct.DecomposedEngine, "min_distance"),
    (perm.PermGroup, "min_coset_rep"),
    (perm.PermGroup, "order"),
    (perm.PermGroup, "right_transversal"),
    (perm.Permutation, "to_cycle_text"),
    (gf2.BinaryCode, "permuted"),
    (dataset.TableEntry, "tau"),
]


def test_tracer_installs_on_the_package(tmp_path):
    # install() patches the package for the whole process, so it runs in
    # a fresh interpreter; an unresolved name raises AttributeError.
    code = (
        "import tracer\n"
        "tracer.install(tracer.Tracer(%r))\n"
        "print('installed')\n" % str(tmp_path)
    )
    path = [str(BENCH), str(Path(cubicsd.__file__).parents[1])]
    path.append(os.environ.get("PYTHONPATH", ""))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "installed"


def _module_attribute_chains(tree):
    """Every ``module.a.b`` chain rooted at one of the package modules."""
    chains = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in MODULES and parts:
            chains.add((node.id, tuple(reversed(parts))))
    return chains


def test_rep_calls_resolve():
    tree = ast.parse((BENCH / "rep.py").read_text())
    chains = _module_attribute_chains(tree)
    assert ("search", ("run_search",)) in chains
    for module, parts in sorted(chains):
        owner = MODULES[module]
        for part in parts:
            assert hasattr(owner, part), "%s.%s" % (module, ".".join(parts))
            owner = getattr(owner, part)
    for cls, name in METHODS:
        assert callable(getattr(cls, name, None)), "%s.%s" % (cls, name)


def test_rep_keywords_resolve():
    """Keyword arguments rep.py passes to package functions exist."""
    tree = ast.parse((BENCH / "rep.py").read_text())
    checked = 0
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and node.keywords):
            continue
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in MODULES
        ):
            continue
        params = inspect.signature(
            getattr(MODULES[func.value.id], func.attr)
        ).parameters
        for kw in node.keywords:
            assert kw.arg in params, "%s.%s(%s=)" % (
                func.value.id,
                func.attr,
                kw.arg,
            )
            checked += 1
    assert checked
