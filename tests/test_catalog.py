from dataclasses import replace

import pbent.catalog
from pbent.catalog import list_catalog, verify_entry
from pbent.funcrep import parse_function_spec
from pbent.walsh import NON_WEAKLY_REGULAR, REGULAR, Classification


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
        res = verify_entry(e)
        assert res["status"] == "match", (e.label, res)


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
        res = verify_entry(e)
        assert res["classification"].variant == "non_weakly_regular"
        assert res["classification"].dual_bent is dual_bent


def test_wrong_expectation_is_a_mismatch_after_one_classification(monkeypatch):
    # the wrong dual-bent flag: the spec is classified once, as written,
    # and the entry reports mismatch with that classification
    calls = []
    real = pbent.catalog.classify
    monkeypatch.setattr(pbent.catalog, "classify",
                        lambda f: calls.append(f) or real(f))
    e = get_entry("sporadic_n3_x8_x14")
    res = verify_entry(replace(e, expected_dual_bent=False))
    assert res["status"] == "mismatch"
    assert res["classification"].dual_bent is True
    assert len(calls) == 1


def test_quadratic_baselines_weakly_regular_dual_bent():
    for label in ("quadratic_n2", "quadratic_n4", "quadratic_n6"):
        e = get_entry(label)
        res = verify_entry(e)
        cls = res["classification"]
        assert cls.variant in ("weakly_regular", "regular")
        assert cls.dual_bent is True


def test_matches_compares_the_variant():
    entry = get_entry("binomial_wr_n4")
    assert entry.expected_variant == "weakly_regular"
    assert not pbent.catalog._matches(Classification(NON_WEAKLY_REGULAR), entry)
    entry = get_entry("sporadic_n3_x8_x14")
    assert entry.expected_variant == "non_weakly_regular"
    assert not pbent.catalog._matches(Classification(REGULAR, sign=1), entry)
