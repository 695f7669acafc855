"""Every module-level function and class of the package has a caller in
the package, or is exported through ``spangle.__all__``, and every
method of its classes has a caller in the package.

A helper that only the tests call belongs in the tests.  Dunders, the
click commands (reached through the command group) and overrides that
extend their base class's method are exempt.
"""

import ast
from collections import Counter
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


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _extends_base(method: ast.FunctionDef) -> bool:
    """Whether a method calls its base class's method of the same name (an
    override, which the base class's own machinery calls)."""
    return any(
        isinstance(n, ast.Attribute)
        and n.attr == method.name
        and isinstance(n.value, ast.Call)
        and getattr(n.value.func, "id", None) == "super"
        for n in ast.walk(method)
    )


TREES = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_every_module_level_definition_is_used_or_exported():
    uses = [use for tree in TREES.values() for use in _uses(tree)]
    unused = [
        f"{module}:{node.name}"
        for module, tree in TREES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not _is_dunder(node.name)
        and not _is_click_command(node)
        and node.name not in spangle.__all__
        and not any(name == node.name and top is not node for name, top in uses)
    ]
    assert unused == []


def test_every_method_is_used():
    """Each method or property is read somewhere in the package outside its
    own body; overrides that extend their base's method are exempt.  The
    check goes by name, so a method that shares its name with one in use
    (``set.add``, say) passes it."""
    reads = Counter(name for tree in TREES.values() for name, _ in _uses(tree))
    unused = [
        f"{module}:{cls.name}.{node.name}"
        for module, tree in TREES.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not _is_dunder(node.name)
        and not _extends_base(node)
        and reads[node.name] == sum(name == node.name for name, _ in _uses(ast.Module(body=[node], type_ignores=[])))
    ]
    assert unused == []
