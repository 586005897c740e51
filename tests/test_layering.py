"""Import layering of the package, read from the source with ast.

The modules stack as fock -> algebra -> dsl -> criteria -> cli: the DSL
parses and lowers text, and criteria lowers its witness operators through
it, so dsl must not reach back into criteria or cli.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "entcert"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _imported_modules(name: str) -> set[str]:
    """Package modules that module ``name`` imports; ``__init__`` stands for
    a name imported from the package itself."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is not None:
                found.add(node.module.split(".")[0])
            else:
                found.update(a.name if a.name in MODULES else "__init__" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("entcert"):
            parts = node.module.split(".")
            if len(parts) > 1:
                found.add(parts[1])
            else:
                found.update(a.name if a.name in MODULES else "__init__" for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "entcert":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
    found.discard(name)
    return found


GRAPH = {name: _imported_modules(name) for name in MODULES}


def test_graph_sees_the_known_edges():
    assert "fock" in GRAPH["algebra"]
    assert {"algebra", "dsl", "fock"} <= GRAPH["criteria"]
    assert {"criteria", "dsl"} <= GRAPH["cli"]


@pytest.mark.parametrize("upper", ["criteria", "cli"])
def test_dsl_imports_nothing_above_it(upper):
    assert upper not in GRAPH["dsl"]


def test_import_graph_has_no_cycle():
    done, on_path = set(), []

    def visit(name):
        if name in on_path:
            cycle = on_path[on_path.index(name):] + [name]
            pytest.fail("import cycle: " + " -> ".join(cycle))
        if name in done:
            return
        on_path.append(name)
        for dep in sorted(GRAPH[name]):
            visit(dep)
        on_path.pop()
        done.add(name)

    for name in MODULES:
        visit(name)
