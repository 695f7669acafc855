"""Every module-level function and class of the package has a caller in
the package, or is exported through ``spangle.__all__``, and every
method of its classes has a caller in the package.

A helper that only the tests call belongs in the tests.  Dunders, the
click commands (reached through the command group) and overrides that
extend their base class's method are exempt.

Every defaulted parameter of those functions and methods is passed by
some call in the package or the tests: a default nobody overrides is a
constant, not a knob.
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
TEST_TREES = [ast.parse(path.read_text()) for path in sorted(Path(__file__).parent.glob("*.py"))]


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


def _defaulted_parameters(fn: ast.FunctionDef, is_method: bool):
    """(name, position) of each defaulted parameter, the position counted
    as a call passes it (after the bound self or cls of a method, None for
    keyword-only)."""
    args = fn.args
    positional = args.posonlyargs + args.args
    bound = is_method and not any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield arg.arg, i - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _calls_by_name(trees):
    """Every call in the trees, keyed by the called name (the attribute for
    ``x.f(...)``, the imported name for an alias)."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees:
        aliases = {
            alias.asname: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if alias.asname
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    calls.setdefault(aliases.get(func.id, func.id), []).append(node)
                elif isinstance(func, ast.Attribute):
                    calls.setdefault(func.attr, []).append(node)
    return calls


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether a call passes the parameter, by keyword, by position, or
    possibly through ``*args`` or ``**kwargs``."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def _functions():
    """(module, function, is_method) for each module-level function but the
    click commands, and each method."""
    for module, tree in TREES.items():
        for top in tree.body:
            if isinstance(top, ast.FunctionDef) and not _is_click_command(top):
                yield module, top, False
            elif isinstance(top, ast.ClassDef):
                for node in top.body:
                    if isinstance(node, ast.FunctionDef):
                        yield module, node, True


def test_every_defaulted_parameter_is_passed_somewhere():
    calls = _calls_by_name([*TREES.values(), *TEST_TREES])
    never_passed = [
        f"{module}:{fn.name}({name})"
        for module, fn, is_method in _functions()
        for name, position in _defaulted_parameters(fn, is_method)
        if not any(_passes(call, name, position) for call in calls.get(fn.name, []))
    ]
    assert never_passed == []
