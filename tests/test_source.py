import ast
from pathlib import Path

import addcomb

PACKAGE = Path(addcomb.__file__).parent


def test_no_assert_statements_in_package():
    """Invariants must raise explicitly: `python -O` strips assert statements."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found
