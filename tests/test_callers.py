"""Every function and method in src/pbent has a caller outside the tests.

The scan parses src/pbent/*.py with `ast` and collects each module-level
function and each method of a module-level class.  A definition counts as
called when its name appears as a name or an attribute anywhere in
src/pbent (`__init__.py` excluded: a re-export is not a call), demos/ or
bench/, or as the last part of a dotted path in `bench/tracing.py`'s
SPANS and COUNTED, which the tracer resolves by string.

The match is by name only, so it cannot see through collisions: a method
named like another definition (`zero`, `to_json`, `truth_table`) passes as
soon as either one is referenced.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pbent"

# argparse calls `error` on a parser; no code in the package names it
EXEMPT = {"_ArgumentParser.error"}


def _definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                yield path.stem, node.name, node.name
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        yield path.stem, "%s.%s" % (node.name, sub.name), sub.name


def _traced_paths():
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("SPANS", "COUNTED") for t in node.targets):
            for _, _, path in ast.literal_eval(node.value):
                yield path.split(".")[-1]


def _referenced_names():
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    names = set(_traced_paths())
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_traced_paths_are_read():
    assert "norm_sq" in set(_traced_paths())


def test_every_src_function_has_a_runtime_caller():
    referenced = _referenced_names()
    orphans = ["%s.%s" % (module, qualname) for module, qualname, name in _definitions()
               if not (name.startswith("__") and name.endswith("__"))
               and qualname not in EXEMPT and name not in referenced]
    assert orphans == []
