"""src/ holds only what runs: every top-level name, and every method or
property of a class, is used somewhere in src/.

A function, class or constant that only the tests call belongs in
``tests/oracles.py``. Exports in ``__init__.py`` (its name table is made of
strings), imports and docstrings are not uses. Nor does a module in src/ or
tests/ import a name it never loads, except on a line marked ``# noqa: F401``,
and no two functions there share their arguments and body: one of them belongs
in ``tests/oracles.py`` or in the module both use.
"""

import ast
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "wavelab"
MODULES = sorted([*SRC.glob("*.py"), *TESTS.glob("*.py")])


def defined_names(tree):
    """(name, node) of each top-level function, class and assigned constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def loaded_names(statement):
    """Names ``statement`` loads, as ``name`` or as ``x.name``."""
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def parse_src():
    return {path: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def methods(tree):
    """(name, node) of each non-dunder method or property of a top-level class."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                    yield node.name, node


def attribute_loads(node) -> Counter:
    """How often ``node`` loads each ``x.name``."""
    return Counter(
        sub.attr for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    )


def unused_top_level_names(trees):
    """``file: name`` of each top-level name that no other statement loads."""
    # a use inside its own definition is not a use
    uses = {id(stmt): set(loaded_names(stmt)) for tree in trees.values() for stmt in tree.body}
    return [
        f"{path.name}: {name}"
        for path, tree in trees.items() if path.name != "__init__.py"
        for name, node in defined_names(tree)
        if not any(name in names for key, names in uses.items() if key != id(node))
    ]


def test_every_top_level_name_is_used_in_src():
    unused = unused_top_level_names(parse_src())
    assert not unused, "defined in src/ but used only outside it:\n" + "\n".join(unused)


def test_a_name_only_init_lists_is_unused():
    # whitening_std is called only in cli.py; without it, __init__'s table still lists it
    trees = {path: tree for path, tree in parse_src().items() if path.name != "cli.py"}
    assert "noise.py: whitening_std" in unused_top_level_names(trees)


def test_every_method_and_property_is_used_in_src():
    trees = parse_src()
    loads = sum((attribute_loads(tree) for tree in trees.values()), Counter())
    # a load inside its own definition is not a use
    unused = [
        f"{path.name}: {name}"
        for path, tree in trees.items()
        for name, node in methods(tree)
        if loads[name] - attribute_loads(node)[name] == 0
    ]
    assert not unused, "a src/ method or property used only outside src/:\n" + "\n".join(unused)


def unused_imports(source):
    """``line: name`` of each name an import binds that the module never loads."""
    tree, lines = ast.parse(source), source.splitlines()
    loads = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [
        f"{alias.lineno}: {name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        for name in [(alias.asname or alias.name).split(".")[0]]
        if name not in loads and "# noqa: F401" not in lines[alias.lineno - 1]
    ]


def test_no_module_imports_a_name_it_never_loads():
    unused = [f"{path.relative_to(TESTS.parent)}:{entry}"
              for path in MODULES
              for entry in unused_imports(path.read_text())]
    assert not unused, "imported but never loaded:\n" + "\n".join(unused)


def function_text(node):
    """``node``'s arguments and body as AST dumps, without a leading docstring."""
    body = node.body[1:] if ast.get_docstring(node, clean=False) is not None else node.body
    return ast.dump(node.args), *(ast.dump(statement) for statement in body)


def test_no_two_functions_share_a_body():
    places = {}
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                place = f"{path.relative_to(TESTS.parent)}:{node.lineno} {node.name}"
                places.setdefault(function_text(node), []).append(place)
    shared = [" = ".join(names) for names in places.values() if len(names) > 1]
    assert not shared, "functions with one body:\n" + "\n".join(shared)
