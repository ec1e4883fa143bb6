import ast
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
