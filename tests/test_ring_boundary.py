"""Z[w] arithmetic in src/pbent runs through the coordinate functions of
`pbent.cyclo` alone.

`CycInt` is a plain value type: only the one-point functions
`single_walsh_value` and `trinomial_closed_form_walsh` return it
(`gauss_sum` and `second_derivative_triple_sum` return coordinate tuples),
and it defines no arithmetic of its own.  The scan parses
src/pbent/*.py with `ast`, as `test_callers.py` does; `__init__.py` is
excluded, since a re-export is not a use.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "pbent"

_BINARY = ("add", "sub", "mul", "matmul", "truediv", "floordiv", "mod", "divmod", "pow",
           "lshift", "rshift", "and", "xor", "or")
ARITHMETIC = ({"__%s%s__" % (prefix, op) for op in _BINARY for prefix in ("", "r", "i")}
              | {"__neg__", "__pos__", "__abs__", "__invert__"})


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.ClassDef):
            yield node.name


def test_cycint_defines_no_arithmetic_dunder():
    tree = ast.parse((PACKAGE / "cyclo.py").read_text())
    (cls,) = [node for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == "CycInt"]
    members = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
    members |= {target.id for node in cls.body if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    assert members & ARITHMETIC == set()


def test_only_cyclo_walsh_and_constructions_name_cycint():
    users = {path.stem for path in PACKAGE.glob("*.py") if path.name != "__init__.py"
             and "CycInt" in set(_names(ast.parse(path.read_text())))}
    assert users == {"cyclo", "walsh", "constructions"}
