"""The package's modules import each other without a cycle, counting the
imports inside function bodies too."""

import ast
from graphlib import TopologicalSorter
from pathlib import Path

import isingcrit

PACKAGE = Path(isingcrit.__file__).parent
MODULES = {p.stem for p in PACKAGE.glob("*.py")}


def _imported_modules(path: Path) -> set[str]:
    """Package modules that `path` imports anywhere, by file stem."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):  # a relative import is from the package
            base = ".".join(filter(None, ["isingcrit" if node.level else "", node.module]))
            names = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for parts in (name.split(".") for name in names):
            if parts[0] == "isingcrit":
                # a submodule, or a name that the package's __init__ defines
                found.add(parts[1] if len(parts) > 1 and parts[1] in MODULES else "__init__")
    return found


def test_package_import_graph_is_acyclic():
    graph = {p.stem: _imported_modules(p) - {p.stem} for p in PACKAGE.glob("*.py")}
    assert graph["network"] >= {"hamiltonian"}  # relative imports are seen
    assert "network" in graph["criticality"]
    # the gate layer reads no solver, expansion or scan
    assert not graph["network"] & {"dynamics", "criticality", "perturbation", "cli"}
    TopologicalSorter(graph).prepare()  # raises CycleError, naming the cycle
