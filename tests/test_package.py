import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kdalign"


def _names(node: ast.AST) -> set[str]:
    """Every name the node reads, bare or as an attribute."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_every_public_definition_has_a_caller_in_the_package():
    # a public function or class that only tests call is code the program never runs
    statements = [
        (path.stem, node) for path in sorted(SRC.glob("*.py")) for node in ast.parse(path.read_text()).body
    ]
    used = [(node, _names(node)) for _, node in statements]
    uncalled = [
        f"{module}.{node.name}"
        for module, node in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not any(node.name in names for other, names in used if other is not node)
    ]
    assert uncalled == []


def test_every_module_is_loaded_by_the_cli():
    # a module that only tests import is code the program never runs
    script = "import sys, kdalign.cli; print(*sorted(m for m in sys.modules if m.startswith('kdalign.')))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == sorted(f"kdalign.{p.stem}" for p in SRC.glob("*.py") if p.stem != "__init__")


def test_every_oracle_is_reached_from_a_test():
    # an oracle no test reaches, directly or through another oracle, checks nothing
    tests = Path(__file__).resolve().parent
    oracles = {
        node.name: node
        for node in ast.parse((tests / "oracles.py").read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    test_files = [*tests.glob("test_*.py"), tests / "conftest.py"]
    reached = set().union(*(_names(ast.parse(p.read_text())) for p in test_files)) & oracles.keys()
    frontier = list(reached)
    while frontier:
        for name in (_names(oracles[frontier.pop()]) & oracles.keys()) - reached:
            reached.add(name)
            frontier.append(name)
    assert sorted(oracles.keys() - reached) == []


def test_no_module_imports_another_modules_private_name():
    # a leading underscore marks a name as its own module's; a name that
    # another module needs is public
    reached = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()  # package modules bound by ``from . import m``
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "kdalign"):
                if node.module is None or node.module == "kdalign":
                    modules |= {a.asname or a.name for a in node.names}
                reached += [f"{path.stem}: {a.name}" for a in node.names if a.name.startswith("_")]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and node.attr.startswith("_")
            ):
                reached.append(f"{path.stem}: {node.value.id}.{node.attr}")
    assert reached == []
