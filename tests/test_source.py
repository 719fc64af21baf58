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
    """Each quantity has one production path; its oracle lives in the tests.
    A work limit is a module constant, read at call time, never a
    parameter, so the limits in force are the constants."""
    found = []
    for info in pkgutil.iter_modules(addcomb.__path__):
        module = importlib.import_module(f"addcomb.{info.name}")
        for name, fn in _functions(module):
            for param in inspect.signature(fn).parameters:
                if param in ("method", "budget") or param.endswith(("_budget", "_cap")):
                    found.append(f"{info.name}.{name}({param})")
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


# Reached on purpose by no command or criterion: the scalar oracle of
# mobius_sieve, the |A||B|^{4/5} square-sum edge bound, the package version.
KEEP = ("mobius", "pair_square_edges", "__version__")


def test_every_definition_is_reached_by_a_command_or_criterion():
    """Every top-level function and class is reached from cli.main, from a
    name the acceptance criteria import, or from KEEP, by following name and
    attribute references between the top-level statements of the package;
    so is every export of addcomb."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    aliases = {}  # (module, name) -> (module, name) it is imported from; name None for a module
    bodies = {}  # (module, name) -> the top-level statement binding it
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                for alias in stmt.names:
                    target = (alias.name, None) if stmt.module is None else (stmt.module, alias.name)
                    aliases[module, alias.asname or alias.name] = target
            elif isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                bodies[module, stmt.name] = stmt
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for node in (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                    bodies[module, node.id] = stmt

    def resolve(key):
        while key in aliases:
            key = aliases[key]
        return key

    def references(module, stmt):
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                yield resolve((module, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                owner, name = resolve((module, node.value.id))
                if name is None:
                    yield resolve((owner, node.attr))

    acceptance = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    roots = [("cli", "main")] + [resolve(("__init__", name)) for name in KEEP]
    for stmt in acceptance.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module.split(".")[0] == "addcomb":
            module = stmt.module.partition(".")[2] or "__init__"
            roots += [resolve((module, alias.name)) for alias in stmt.names]
    missing = [root for root in roots if root not in bodies]
    assert not missing, missing

    reached, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key in bodies and key not in reached:
            reached.add(key)
            todo.extend(references(key[0], bodies[key]))
    unreached = sorted(
        f"{module}.{name}"
        for (module, name), stmt in bodies.items()
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and (module, name) not in reached
    )
    assert not unreached, unreached
    exports = {name for module, name in list(aliases) + list(bodies) if module == "__init__"}
    assert sorted(name for name in exports if resolve(("__init__", name)) not in reached) == []
