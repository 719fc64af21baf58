import ast
import importlib
import inspect
import pkgutil
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


def test_no_method_switch_in_package():
    """Each quantity has one production path; its oracle lives in the tests."""
    found = []
    for info in pkgutil.iter_modules(addcomb.__path__):
        module = importlib.import_module(f"addcomb.{info.name}")
        for name, fn in _functions(module):
            if "method" in inspect.signature(fn).parameters:
                found.append(f"{info.name}.{name}")
    assert not found, found


def _functions(module):
    """(qualified name, function) for every function and method defined in module."""
    for name, value in vars(module).items():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield name, value
        elif inspect.isclass(value):
            for attr, member in vars(value).items():
                member = getattr(member, "__func__", member)  # classmethod, staticmethod
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member
