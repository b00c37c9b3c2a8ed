"""Code nothing calls is deleted: every module-level function and class in
``src/dtasnn`` is named by some other code in ``src/``, and every module-level
function of the test helpers ``oracles.py`` and ``tapes.py`` by some other
code in ``tests/``."""

import ast
import os
from collections import Counter

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(TESTS, "..", "src", "dtasnn")


def referenced_names(tree) -> Counter:
    """How often each name is used in *tree*: as a ``Name``, as an
    attribute, or as the name an import takes."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


def parse_modules(directory) -> dict:
    """Each ``.py`` file of *directory*, by file name, as a parsed tree."""
    modules = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                modules[name] = ast.parse(fh.read(), filename=name)
    return modules


def unreferenced(modules, checked, kinds) -> list:
    """The module-level definitions of the *kinds* in the *checked* files of
    *modules* that no code in *modules* names besides their own."""
    everywhere = sum((referenced_names(tree) for tree in modules.values()), Counter())
    found = []
    for module in checked:
        for node in modules[module].body:
            if isinstance(node, kinds):
                # a recursive call or a method's use of its own class is not a caller
                if everywhere[node.name] - referenced_names(node)[node.name] == 0:
                    found.append(f"{module}:{node.lineno} {node.name}")
    return found


def test_every_module_level_definition_is_referenced():
    modules = parse_modules(SRC)
    dead = unreferenced(modules, modules, (ast.FunctionDef, ast.ClassDef))
    assert not dead, f"defined but never referenced in src/: {dead}"


def test_every_oracle_and_tape_helper_is_referenced():
    dead = unreferenced(parse_modules(TESTS), ("oracles.py", "tapes.py"), ast.FunctionDef)
    assert not dead, f"defined but never referenced in tests/: {dead}"
