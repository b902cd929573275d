"""The package imports no private module of another distribution."""

import ast
import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import majprop
import majprop.driver
import majprop.instances as inst
import majprop.pool
from majprop.surrogate import build_surrogate

PACKAGE = Path(majprop.__file__).parent


def _private(name):
    return any(
        part.startswith("_") and not (part.startswith("__") and part.endswith("__"))
        for part in name.split(".")
    )


def _foreign_private_imports(tree):
    """Dotted names of underscore-prefixed modules (or members) imported
    from outside ``majprop``; relative imports are the package's own."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] != "majprop" and _private(alias.name):
                    yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "majprop":
                continue
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                if _private(name):
                    yield name


def test_no_private_imports_from_other_packages():
    probe = ast.parse(
        "from __future__ import annotations\n"
        "from scipy.sparse import _sparsetools as _spt\n"
        "import scipy.sparse._sparsetools\n"
        "import numpy as np\n"
        "from . import _kernels\n"
        "from majprop._kernels import popcount\n"
    )
    assert list(_foreign_private_imports(probe)) == ["scipy.sparse._sparsetools"] * 2
    offenders = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := list(_foreign_private_imports(ast.parse(path.read_text()))))
    }
    assert offenders == {}


def test_traced_entry_points_exist(monkeypatch):
    """The benchmark's tracer wraps layer entry points by name; each one it
    lists must exist in the module it names, or ``--trace 1`` breaks.  It
    counts a scoring call's candidates by binding the scorer's arguments
    named ``pool`` and ``indices``."""
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    modules = {"driver": majprop.driver, "pool": majprop.pool}
    assert tracing.ENTRY_POINTS
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in tracing.ENTRY_POINTS
        if not hasattr(modules[module], attr)
    ]
    assert missing == []
    for scorer in (majprop.driver.score_pool_ggf, majprop.driver.score_pool_gradient):
        assert {"pool", "indices"} <= set(inspect.signature(scorer).parameters)


@pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
def test_tracer_reads_what_a_graph_holds(picture):
    """The benchmark's tracer reads a run's final graph: the ``stats()``
    keys it names, and ``graph.sink`` counted against the final layer's
    size, so the sink must stay aligned with ``graph.final_keys``."""
    source = (Path(__file__).parents[1] / "perfbench" / "tracing.py").read_text()
    used = set(re.findall(r'stats\["(\w+)"\]', source))
    assert used and "graph.sink" in source
    rng = np.random.default_rng(7)
    circuit = inst.random_circuit(6, 8, rng)
    h = inst.random_molecular_hamiltonian(6, rng)
    graph = build_surrogate(h, circuit, 0b000111, majprop.TruncationPolicy(4), picture)
    stats = graph.stats()
    assert used <= set(stats)
    assert all(isinstance(stats[key], int) for key in used)
    assert graph.sink.shape == graph.final_keys.shape == (stats["final_layer"],)


def test_every_exported_name_resolves():
    """Each name a module lists in ``__all__`` exists in it, so a deleted
    function cannot linger in an export list."""
    missing = {}
    for path in sorted(PACKAGE.glob("*.py")):
        name = "majprop" if path.stem == "__init__" else f"majprop.{path.stem}"
        module = importlib.import_module(name)
        stale = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
        if stale:
            missing[name] = stale
    assert missing == {}


def _unused_imports(source):
    """Names a module imports at module level but never reads and does not
    list in ``__all__``; an import statement whose first line carries
    ``# noqa: F401`` is kept on purpose."""
    tree = ast.parse(source)
    lines = source.splitlines()
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "noqa: F401" in lines[node.lineno - 1]:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in read and bound not in exported:
                yield bound


def test_no_unused_module_imports():
    probe = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import numpy as np\n"
        "from typing import Callable, Sequence\n"
        "from . import _kernels  # noqa: F401 -- kept for a wrapper\n"
        "from .engine import Gate\n"
        "__all__ = ['Gate']\n"
        "def f(x: Sequence[int]) -> None:\n"
        "    return sys.argv\n"
    )
    assert list(_unused_imports(probe)) == ["os", "np", "Callable"]
    offenders = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := list(_unused_imports(path.read_text())))
    }
    assert offenders == {}
