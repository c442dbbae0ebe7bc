"""Every function and method in src/pbent has a caller outside the tests.

The scan parses src/pbent/*.py with `ast` and collects each module-level
function and each method of a module-level class.  Names are gathered from
src/pbent (`__init__.py` excluded: a re-export is not a call), demos/ and
bench/.  A function counts as called when its name appears there as a bare
name or an attribute; a method only as an attribute (`obj.name`), since a
bare name of the same spelling is a local variable, not a call.  The last
part of a dotted path in `bench/tracing.py`'s SPANS and COUNTED counts as
an attribute: the tracer resolves it by string.

The match is by name only, so it cannot see through collisions: a method
named like another method (`zero`, `to_json`, `truth_table`) passes as
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
    """(bare names, attribute names) referenced outside the tests."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    names, attrs = set(), set(_traced_paths())
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return names, attrs


def test_traced_paths_are_read():
    assert "norm_sq" in set(_traced_paths())


def test_every_src_function_has_a_runtime_caller():
    names, attrs = _referenced_names()

    def called(qualname, name):
        return name in attrs or ("." not in qualname and name in names)

    orphans = ["%s.%s" % (module, qualname) for module, qualname, name in _definitions()
               if not (name.startswith("__") and name.endswith("__"))
               and qualname not in EXEMPT and not called(qualname, name)]
    assert orphans == []
