"""A field's index tables are built once per `FieldCtx`, and nowhere else.

The negation table, the trace-dual table and its inverse are cached
attributes of the field.  A second command on the same field, in the same
process, builds none of them; a field built again after `gf._FIELD_CACHE`
is reset builds them again.  An `ast` scan keeps `gf._FIELD_CACHE` the
only module-level dict in src/pbent that starts empty, so no module keeps
a table of a field beside the field.
"""

import ast
import collections
import pathlib

import pytest

import pbent.cli
import pbent.gf
from pbent.funcrep import parse_function_spec
from pbent.gf import FieldCtx, get_field

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "pbent"
TABLES = ("neg_table", "dual_table", "inverse_dual_table")


@pytest.fixture
def builds(monkeypatch):
    """Counts each table's builds, by wrapping the function its cached
    property calls on a miss."""
    counts = collections.Counter()
    for name in TABLES:
        prop = FieldCtx.__dict__[name]

        def counting(ctx, build=prop.func, name=name):
            counts[name] += 1
            return build(ctx)

        monkeypatch.setattr(prop, "func", counting)
    return counts


@pytest.mark.parametrize("spec, built", [
    # degree 4: the scan witness search and the battery read -x, and the
    # battery's rows are transformed
    ("p=3 n=4 f=Tr(x^4+g^10*x^22)", {"neg_table": 1, "dual_table": 1}),
    # degree 2 at p = 5: the pairing of a, -a, and closed-form battery rows
    ("p=5 n=3 f=Tr(x^6+g^1*x^2)", {"neg_table": 1, "dual_table": 1, "inverse_dual_table": 1}),
], ids=["p3_n4_degree_4", "p5_n3"])
def test_second_certify_on_a_field_builds_no_table(spec, built, builds, monkeypatch, capsys):
    monkeypatch.setattr(pbent.gf, "_FIELD_CACHE", {})  # a cold field
    argv = ["analyze", spec, "--certify"]
    assert pbent.cli.main(argv) == 0
    first = capsys.readouterr()
    assert builds == built
    ctx, _ = parse_function_spec(spec)  # the field the command used, from the cache
    tables = {name: ctx.__dict__[name] for name in built}
    assert pbent.cli.main(argv) == 0
    assert capsys.readouterr() == first
    assert builds == built
    assert all(ctx.__dict__[name] is table for name, table in tables.items())


def test_a_field_built_again_after_a_reset_builds_its_tables_again(builds, monkeypatch):
    monkeypatch.setattr(pbent.gf, "_FIELD_CACHE", {})
    ctx = get_field(3, 4)
    old = [getattr(ctx, name) for name in TABLES]
    assert get_field(3, 4) is ctx and [getattr(ctx, name) for name in TABLES] == old
    assert builds == dict.fromkeys(TABLES, 1)
    monkeypatch.setattr(pbent.gf, "_FIELD_CACHE", {})
    fresh = get_field(3, 4)
    assert fresh is not ctx
    assert [getattr(fresh, name) for name in TABLES] == old
    assert builds == dict.fromkeys(TABLES, 2)


def _empty_dicts(tree):
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            value = node.value
            empty = ((isinstance(value, ast.Dict) and not value.keys)
                     or (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                         and value.func.id == "dict" and not value.args and not value.keywords))
            if empty:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                yield from (t.id for t in targets if isinstance(t, ast.Name))


def test_the_field_cache_is_the_only_module_level_cache_dict():
    found = {(path.stem, name) for path in PACKAGE.glob("*.py")
             for name in _empty_dicts(ast.parse(path.read_text()))}
    assert found == {("gf", "_FIELD_CACHE")}
