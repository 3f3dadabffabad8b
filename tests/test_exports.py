"""Every name the package exports has a use inside the package itself."""

import ast
import pathlib
import types
from collections import Counter

import nonlocal_limits

SRC = pathlib.Path(nonlocal_limits.__file__).parent


def name_nodes(tree):
    """Every Name, Attribute and import alias under ``tree``, once per occurrence."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def names_in(paths) -> set[str]:
    """Every Name, Attribute and import alias in the modules at ``paths``."""
    return {name for path in paths
            for name in name_nodes(ast.parse(path.read_text(encoding="utf-8")))}


def test_every_export_is_used_inside_the_package():
    used = names_in(path for path in SRC.glob("*.py") if path.name != "__init__.py")
    unused = sorted(name for name in nonlocal_limits.__all__
                    if not isinstance(getattr(nonlocal_limits, name), types.ModuleType)
                    and name not in used)
    assert unused == [], f"exported but never used in src: {unused}"


def test_every_module_level_function_is_used_inside_the_package():
    # a name counts where it is read outside its own definition: a function that only tests
    # or its own recursion call is dead code
    modules = [ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")]
    total = Counter(name for module in modules for name in name_nodes(module))
    unused = sorted(node.name for module in modules for node in module.body
                    if isinstance(node, ast.FunctionDef)
                    and total[node.name] == Counter(name_nodes(node))[node.name])
    assert unused == [], f"module-level functions never used in src: {unused}"
