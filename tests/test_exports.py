"""Every name the package exports has a use inside the package itself."""

import ast
import pathlib
import types

import nonlocal_limits

SRC = pathlib.Path(nonlocal_limits.__file__).parent


def names_in(paths) -> set[str]:
    """Every Name, Attribute and import alias in the modules at ``paths``."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_export_is_used_inside_the_package():
    used = names_in(path for path in SRC.glob("*.py") if path.name != "__init__.py")
    unused = sorted(name for name in nonlocal_limits.__all__
                    if not isinstance(getattr(nonlocal_limits, name), types.ModuleType)
                    and name not in used)
    assert unused == [], f"exported but never used in src: {unused}"
