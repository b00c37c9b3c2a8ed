"""Code nothing calls is deleted: every module-level function and class in
``src/dtasnn`` is named by some other code in ``src/``."""

import ast
import os
from collections import Counter

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "dtasnn")


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


def test_every_module_level_definition_is_referenced():
    modules = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                modules[name] = ast.parse(fh.read(), filename=name)
    everywhere = sum((referenced_names(tree) for tree in modules.values()), Counter())
    unreferenced = []
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                # a recursive call or a method's use of its own class is not a caller
                if everywhere[node.name] - referenced_names(node)[node.name] == 0:
                    unreferenced.append(f"{module}:{node.lineno} {node.name}")
    assert not unreferenced, f"defined but never referenced in src/: {unreferenced}"
