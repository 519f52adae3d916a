"""No module of the library reads another's private names: a helper two
modules share is public in the one that owns it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "palgebra"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def foreign_private_names(source, module):
    """Each `from .mod import _name` and `mod._name`, for a sibling module
    mod, in the source of the named module, as 'mod._name'."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            out += [f"{node.module}.{alias.name}" for alias in node.names if _private(alias.name)]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in MODULES - {module} and _private(node.attr)):
            out.append(f"{node.value.id}.{node.attr}")
    return out


def test_no_module_reads_a_private_name_of_a_sibling():
    found = {path.stem: names for path in sorted(PACKAGE.glob("*.py"))
             if (names := foreign_private_names(path.read_text(), path.stem))}
    assert not found


def test_the_guard_sees_both_forms():
    source = ("from .fields import _cancel, __all__, RatFunc\n"
              "polys._shift(polys.P_ONE, 0, 0)\n"
              "RatFunc._like\n")
    assert foreign_private_names(source, "algebra") == ["fields._cancel", "polys._shift"]
    # a module's own private names are its own
    assert foreign_private_names("polys._shift", "polys") == []
