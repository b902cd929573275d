"""The package imports no private module of another distribution."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
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
CHECKOUT = Path(__file__).parents[1]


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


def _asserts(tree):
    """Line numbers of the ``assert`` statements of a module."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_invariants_are_real_errors():
    """No module of the package or its scripts holds an ``assert``: an
    invariant raises a real error, which ``python -O`` does not strip."""
    probe = ast.parse(
        "def f(x):\n"
        "    if x < 0:\n"
        "        raise ValueError(x)\n"
        "    assert x, 'checked'\n"
        "class A:\n"
        "    def g(self):\n"
        "        assert self\n"
    )
    assert _asserts(probe) == [4, 7]
    offenders = {
        f"{path.parent.name}/{path.name}": lines
        for path in sorted([*PACKAGE.glob("*.py"), *(CHECKOUT / "scripts").glob("*.py")])
        if (lines := _asserts(ast.parse(path.read_text())))
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
        f"{path.parent.name}/{path.name}": names
        for path in sorted([*PACKAGE.glob("*.py"), *(CHECKOUT / "scripts").glob("*.py"),
                            *(CHECKOUT / "tests").glob("*.py")])
        if (names := list(_unused_imports(path.read_text())))
    }
    assert offenders == {}


def _eager_scipy_imports(tree):
    """scipy modules a module imports while it loads: its import statements
    outside function bodies and ``if TYPE_CHECKING:`` blocks."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names if a.name.split(".")[0] == "scipy")
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module.split(".")[0] == "scipy":
                yield node.module
        elif isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            stack.extend(node.orelse)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_no_module_level_scipy_imports():
    """Each scipy module loads inside the function that uses it, so that
    ``import majprop`` and the CLI start without scipy."""
    probe = ast.parse(
        "from __future__ import annotations\n"
        "from typing import TYPE_CHECKING\n"
        "import numpy as np, scipy.linalg\n"
        "from scipy.sparse import csr_array\n"
        "if TYPE_CHECKING:\n"
        "    import scipy.optimize\n"
        "else:\n"
        "    import scipy.special\n"
        "try:\n"
        "    import scipy.stats\n"
        "except ImportError:\n"
        "    pass\n"
        "class A:\n"
        "    import scipy.fft\n"
        "def f():\n"
        "    import scipy.integrate\n"
        "    from . import _kernels\n"
    )
    assert sorted(_eager_scipy_imports(probe)) == [
        "scipy.fft", "scipy.linalg", "scipy.sparse", "scipy.special", "scipy.stats"
    ]
    offenders = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := list(_eager_scipy_imports(ast.parse(path.read_text()))))
    }
    assert offenders == {}


def _scipy_imports(tree):
    """Every scipy module a module imports, wherever the statement sits;
    ``from scipy import x`` imports ``scipy.x``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names if a.name.split(".")[0] == "scipy")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "scipy":
                yield from (f"scipy.{a.name}" for a in node.names)
            elif node.module.split(".")[0] == "scipy":
                yield node.module


def test_scipy_only_for_the_optimizer():
    """The package's one scipy module is ``scipy.optimize``, for L-BFGS-B
    in ``driver.optimize_parameters``; numpy serves every other kernel."""
    probe = ast.parse(
        "import numpy as np, scipy\n"
        "from scipy import linalg, sparse\n"
        "class A:\n"
        "    from scipy.sparse.linalg import eigsh\n"
        "def f():\n"
        "    import scipy.optimize\n"
        "    from . import _kernels\n"
    )
    assert sorted(_scipy_imports(probe)) == [
        "scipy", "scipy.linalg", "scipy.optimize", "scipy.sparse", "scipy.sparse.linalg"
    ]
    found = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := list(_scipy_imports(ast.parse(path.read_text()))))
    }
    assert found == {"driver.py": ["scipy.optimize"]}


_COLD_START = """
import json, sys
from pathlib import Path

def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

import majprop, majprop.cli
fixtures = Path(sys.argv[1])
h4 = majprop.parse_fcidump((fixtures / "h4_chain_r20.fcidump").read_text())
stages = {"import": loaded()}
majprop.oracle.eigensolve_sector(majprop.build_majorana_hamiltonian(h4), 4, 0)
stages["hamiltonian"] = loaded()
h2 = majprop.parse_fcidump((fixtures / "h2_sto3g.fcidump").read_text())
majprop.run_adapt_vmpe(h2, majprop.RunConfig(max_iterations=1))
stages["run"] = loaded()
print(json.dumps(stages))
"""


def test_scipy_loads_with_its_first_use():
    """In a fresh interpreter, importing the package and its CLI, reading
    an FCIDUMP, building its Hamiltonian and solving a sector of it
    densely load no scipy; the first optimizer run loads
    ``scipy.optimize``."""
    done = subprocess.run(
        [sys.executable, "-c", _COLD_START, str(CHECKOUT / "tests" / "fixtures")],
        env={**os.environ, "PYTHONPATH": str(CHECKOUT / "src")},
        capture_output=True, text=True, check=True, timeout=120,
    )
    stages = json.loads(done.stdout)
    assert stages["import"] == []
    assert stages["hamiltonian"] == []
    assert "scipy.optimize" in stages["run"]
