"""Every module-level function and class of the package has a caller in
the package, or is exported through ``spangle.__all__``.

A helper that only the tests call belongs in the tests.  Dunders and the
click commands (reached through the command group) are exempt.
"""

import ast
from pathlib import Path

import spangle

SRC = Path(spangle.__file__).parent


def _is_click_command(node) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr == "command"
        for d in node.decorator_list
    )


def _uses(tree: ast.Module):
    """(name, top-level statement) for every name or attribute read in a
    module, with a name bound by ``from .x import name as alias`` read
    back to ``name``."""
    aliases = {
        alias.asname: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.asname
    }
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield aliases.get(node.id, node.id), top
            elif isinstance(node, ast.Attribute):
                yield node.attr, top


def test_every_module_level_definition_is_used_or_exported():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = [use for tree in trees.values() for use in _uses(tree)]
    unused = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and not _is_click_command(node)
        and node.name not in spangle.__all__
        and not any(name == node.name and top is not node for name, top in uses)
    ]
    assert unused == []
