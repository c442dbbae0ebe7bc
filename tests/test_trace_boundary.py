"""The trace-of-exp table is read only by `pbent.gf` and by
`TraceForm.truth_table`.

Every other reader of Tr(x y) goes through `FieldCtx.trace_row` (the
one-point Walsh value, the identity battery, the special form), so the
table's layout can change inside `gf` and one evaluator.  The scan parses
src/pbent/*.py with `ast`, as `test_ring_boundary.py` does, and records the
enclosing function of each name.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "pbent"


def _readers(tree, name, scope=()):
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = scope + (node.name,)
        if ((isinstance(node, ast.Attribute) and node.attr == name)
                or (isinstance(node, ast.Name) and node.id == name)):
            yield ".".join(scope)
        yield from _readers(node, name, inner)


def test_only_gf_and_the_trace_form_evaluator_read_trace_of_exp():
    readers = {(path.stem, where) for path in PACKAGE.glob("*.py")
               for where in _readers(ast.parse(path.read_text()), "_trace_of_exp")}
    assert {mod for mod, _ in readers} == {"gf", "funcrep"}
    assert {where for mod, where in readers if mod == "funcrep"} == {"TraceForm.truth_table"}
