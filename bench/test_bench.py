"""Tests of the benchmark's own checkers, and a smoke run of every workload.

Run from the root of the repository:

    python3 -m pytest -q bench/test_bench.py

Each checker is fed a real report of a small input, then the same report
with one fact corrupted, and must pass the first and fire on the second.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Op, _analyze, _trinomial  # noqa: E402

import pbent as pb  # noqa: E402
from pbent import cli  # noqa: E402


def report_of(op: Op) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(op.argv)) == 0
    out = json.loads(buf.getvalue())
    return out.get("analysis", out)


def problems(op: Op, analysis: dict, min_dual_degree: int = 0) -> list[str]:
    return checks.check_op(op, analysis, random.Random(7), pb, min_dual_degree)


def corrupted(analysis: dict, edit) -> dict:
    bad = copy.deepcopy(analysis)
    edit(bad)
    return bad


TRINOMIAL = _trinomial(1, 2, 1)
TRINOMIAL_CERTIFY = _trinomial(1, 0, 1, certify=True, cmd_seed=3)
QUADRATIC = _analyze("quadratic", 4, "p=3 n=4 f=Tr(g^5*x^2)")
QUADRATIC_CERTIFY = _analyze("quadratic", 4, "p=3 n=4 f=Tr(g^5*x^2)", True, 3)
SPARSE = _analyze("sparse", 4, "p=3 n=4 f=Tr(g^3*x^13+x^22)")


@pytest.fixture(scope="module")
def reports():
    return {op: report_of(op) for op in
            (TRINOMIAL, TRINOMIAL_CERTIFY, QUADRATIC, QUADRATIC_CERTIFY, SPARSE)}


def test_real_reports_pass(reports):
    for op, analysis in reports.items():
        assert problems(op, analysis) == [], op.argv
    assert problems(TRINOMIAL, reports[TRINOMIAL], min_dual_degree=4) == []
    assert not reports[SPARSE]["bent"]


@pytest.mark.parametrize("edit", [
    lambda a: a["classification"].update(variant="weakly_regular", sign=1),
    lambda a: a.update(algebraic_degree=4),
    lambda a: a["sign_histogram"].update(plus=a["sign_histogram"]["plus"] + 1),
    lambda a: a.update(n=5),
], ids=["flipped_variant", "wrong_degree", "histogram", "wrong_size"])
def test_trinomial_checks_fire(reports, edit):
    assert problems(TRINOMIAL, corrupted(reports[TRINOMIAL], edit))


@pytest.mark.parametrize("edit", [
    lambda a: a.update(dual_degree=3),
    lambda a: a.update(dual_degree=5),
], ids=["below_floor", "above_true_degree"])
def test_closed_form_checks_fire(reports, edit):
    assert problems(TRINOMIAL, corrupted(reports[TRINOMIAL], edit), min_dual_degree=4)


def test_closed_form_catches_wrong_function(reports):
    # the checker recomputes W_f by direct sums, so a report for another
    # member of the family disagrees with the closed form of (1, 2, 1)
    other = _trinomial(1, 0, 1)
    assert checks.check_closed_form(reports[TRINOMIAL], checks.truth_table(other, pb)[1],
                                    (1, 2, 1), random.Random(7), 4, pb)


@pytest.mark.parametrize("edit", [
    lambda a: (a.update(bent=False), a["classification"].update(variant="not_bent")),
    lambda a: a["classification"].update(variant="non_weakly_regular"),
    lambda a: a.update(dual_degree=3),
    lambda a: a.update(algebraic_degree=3),
], ids=["bent_flipped", "variant", "dual_degree", "degree"])
def test_quadratic_checks_fire(reports, edit):
    assert problems(QUADRATIC, corrupted(reports[QUADRATIC], edit))


def test_degenerate_quadratic_reported_bent_fires():
    # Tr(a x^10) over F_81 is degenerate for some a; find one by rank
    for m in range(80):
        op = _analyze("quadratic", 4, "p=3 n=4 f=Tr(g^%d*x^10)" % m)
        analysis = report_of(op)
        if not analysis["bent"]:
            break
    else:
        pytest.fail("no degenerate Tr(a x^10) over F_81")
    assert problems(op, analysis) == []
    bad = corrupted(analysis, lambda a: (
        a.update(bent=True, sign_histogram={"plus": 81, "minus": 0}, dual_degree=2),
        a["classification"].update(variant="regular", sign=1)))
    assert any("form rank" in p for p in problems(op, bad))


def test_bent_reported_not_bent_fires(reports):
    as_sparse = Op("sparse", TRINOMIAL.argv, 4, params=TRINOMIAL.params)
    bad = corrupted(reports[TRINOMIAL], lambda a: (
        a.update(bent=False), a["classification"].update(variant="not_bent")))
    assert "every derivative is balanced" in " ".join(problems(as_sparse, bad))


def test_not_bent_reported_bent_fires(reports):
    bad = corrupted(reports[SPARSE], lambda a: (
        a.update(bent=True, sign_histogram={"plus": 81, "minus": 0}),
        a["classification"].update(variant="regular", sign=1)))
    assert any("|W|^2" in p for p in problems(SPARSE, bad))


def _shift_witnesses(a):
    a["cubic_like"]["witnesses"] = {k: [(b % 80) + 1, c]
                                    for k, (b, c) in a["cubic_like"]["witnesses"].items()}


@pytest.mark.parametrize("op,edit", [
    (TRINOMIAL_CERTIFY, _shift_witnesses),
    (TRINOMIAL_CERTIFY, lambda a: a["cubic_like"].update(
        witnesses={k: [b, 3 - c] for k, (b, c) in a["cubic_like"]["witnesses"].items()})),
    (TRINOMIAL_CERTIFY, lambda a: a["wr_identities"].update(pairs_checked=6560)),
    (TRINOMIAL_CERTIFY, lambda a: a["wr_identities"].update(exhaustive=False)),
    (TRINOMIAL_CERTIFY, lambda a: a["cubic_like"].update(complete=False)),
    (TRINOMIAL_CERTIFY, lambda a: a.pop("wr_identities")),
    (QUADRATIC_CERTIFY, lambda a: a["wr_identities"].update(sound_violation_count=1,
                                                            violation_count=1)),
], ids=["witness_b", "witness_constant", "pair_count", "exhaustive_flag",
        "incomplete_certificate", "missing_battery", "sound_violation_on_wr"])
def test_certify_checks_fire(reports, op, edit):
    assert problems(op, corrupted(reports[op], edit))


def test_speed_probe_factor_uses_samples_near_the_interval():
    probe = speed.SpeedProbe()
    with probe:
        probe.bracket()
        start = time.perf_counter()
        while time.perf_counter() < start + 3 * speed.INTERVAL_S:
            sum(range(1000))
        end = time.perf_counter()
        probe.bracket()
    taken = len(probe.samples)
    assert taken >= 2 * speed.BRACKET + 2   # brackets plus timer samples
    near = [d for t, d in probe.samples if start - speed.MARGIN_S <= t <= end + speed.MARGIN_S]
    assert probe.factor(start, end) == speed.REFERENCE_S / speed.median(near)
    time.sleep(2 * speed.INTERVAL_S)
    assert len(probe.samples) == taken  # the timer is off after exit


def test_rank_mod_p():
    assert checks.rank_mod_p([[1, 2], [2, 1]]) == (1, [1, 1])
    assert checks.rank_mod_p([[1, 0], [0, 2]]) == (2, None)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run(workload):
    result = run.run(workload, seed=11, seconds=0, trace=False, smoke=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {"setup_s", "fn_per_s", "fn_latency_p50_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_trace(workload):
    result = run.run(workload, seed=11, seconds=0, trace=True, smoke=True)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == set(tracing.METRICS)
    assert 0.9 < metrics["trace.span_share"]["value"] <= 1.0
    assert metrics["walsh.transforms"]["value"] >= 1
    again = run.run(workload, seed=11, seconds=0, trace=True, smoke=True)["metrics"]
    for name, unit in tracing.METRICS.items():
        if unit != "s" and name != "trace.span_share":
            assert again[name] == metrics[name], name
