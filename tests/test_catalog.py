from dataclasses import replace

from pbent.catalog import list_catalog, reinterpret_trace_form, verify_entry
from pbent.funcrep import parse_function_spec


def get_entry(label):
    return next(e for e in list_catalog() if e.label == label)


def test_catalog_contents_and_order():
    entries = list_catalog()
    labels = [e.label for e in entries]
    assert labels == [
        "sporadic_n3_x8_x14",
        "sporadic_n4_x4_g10x22",
        "sporadic_n6_g7x98",
        "sporadic_n6_g7x14_g35x70",
        "sporadic_n6_g1x20_g41x92",
        "binomial_wr_n4",
        "quadratic_n2",
        "quadratic_n4",
        "quadratic_n6",
    ]
    assert sum(1 for e in entries if e.label.startswith("sporadic_")) == 5
    for e in entries:
        ctx, tf = parse_function_spec(e.spec)  # every entry parses
        assert ctx.q == len(tf.truth_table().values)


def test_all_entries_verify_under_pinned_realization():
    for e in list_catalog():
        res = verify_entry(e, search=False)
        assert res["status"] in ("match", "primitive_dependent"), (e.label, res)
        assert res["exponent"] == e.pinned_exponent


def test_sporadic_expectations():
    expect = {
        "sporadic_n3_x8_x14": True,
        "sporadic_n4_x4_g10x22": False,
        "sporadic_n6_g7x98": False,
        "sporadic_n6_g7x14_g35x70": False,
        "sporadic_n6_g1x20_g41x92": True,
    }
    for label, dual_bent in expect.items():
        e = get_entry(label)
        assert e.expected_variant == "non_weakly_regular"
        assert e.expected_dual_bent is dual_bent
        res = verify_entry(e, search=False)
        assert res["classification"].variant == "non_weakly_regular"
        assert res["classification"].dual_bent is dual_bent


def test_reinterpretation_mechanics():
    e = get_entry("sporadic_n4_x4_g10x22")
    ctx, tf = parse_function_spec(e.spec)
    same = reinterpret_trace_form(tf, 1)
    assert same.truth_table() == tf.truth_table()
    # integer coefficients are fixed by any odd exponent
    twisted = reinterpret_trace_form(tf, 7)
    coeff_map = dict((exp, c) for c, exp in twisted.terms)
    assert coeff_map[4] == ctx.one()
    assert coeff_map[22] == ctx.gen_power(70)


def test_search_reports_primitive_dependence():
    # expect the wrong dual-bent flag: the pinned try fails, the search
    # cannot fix a realization-independent mismatch, so it reports mismatch
    e = get_entry("sporadic_n3_x8_x14")
    wrong = replace(e, expected_dual_bent=False)
    res = verify_entry(wrong, search=True)
    assert res["status"] == "mismatch"


def test_quadratic_baselines_weakly_regular_dual_bent():
    for label in ("quadratic_n2", "quadratic_n4", "quadratic_n6"):
        e = get_entry(label)
        res = verify_entry(e, search=False)
        cls = res["classification"]
        assert cls.variant in ("weakly_regular", "regular")
        assert cls.dual_bent is True
