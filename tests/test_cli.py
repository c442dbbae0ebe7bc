import itertools
import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "pbent", *args],
                          capture_output=True, text=True, env=env)


def test_analyze_table_row():
    res = run_cli("analyze", "p=3 n=3 f=Tr(x^8+x^14)")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["bent"] is True
    assert out["classification"]["variant"] == "non_weakly_regular"
    assert out["classification"]["dual_bent"] is True
    assert out["dual_bent"] is True
    assert out["p"] == 3 and out["n"] == 3


def test_analyze_not_bent():
    res = run_cli("analyze", "p=3 n=2 f=Tr(x)")
    out = json.loads(res.stdout)
    assert out["bent"] is False
    assert out["classification"]["variant"] == "not_bent"


def test_analyze_deterministic_output():
    a = run_cli("analyze", "p=3 n=4 f=Tr(x^34+x^2)", "--certify", "--seed", "5")
    b = run_cli("analyze", "p=3 n=4 f=Tr(x^34+x^2)", "--certify", "--seed", "5")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout  # byte-identical


def test_exit_codes():
    assert run_cli("analyze", "p=3 n=2 f=Tr(x").returncode == 2
    assert run_cli("construct", "trinomial", "--k", "1", "--j", "1", "--t", "1").returncode == 3
    assert run_cli("--max-points", "10", "analyze", "p=3 n=3 f=Tr(x^2)").returncode == 4
    err = json.loads(run_cli("analyze", "p=3 n=2 f=Tr(x").stderr)
    assert err["error"]["kind"] == "parse_error"


def test_construct_trinomial_analyze():
    res = run_cli("construct", "trinomial", "--k", "1", "--j", "2", "--t", "1",
                  "--analyze", "--certify")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["n"] == 4
    assert out["analysis"]["classification"]["variant"] == "non_weakly_regular"
    assert out["analysis"]["algebraic_degree"] == 3
    assert out["analysis"]["cubic_like"]["complete"] is True
    assert out["analysis"]["wr_identities"]["sound_violation_count"] > 0


def test_certify_n8_quadratic_is_sound_clean():
    res = run_cli("analyze", "p=3 n=8 f=Tr(x^2)", "--certify")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["cubic_like"]["complete"] is True
    wr = out["wr_identities"]
    assert wr["exhaustive"] is False and wr["pairs_checked"] == 10000
    assert wr["sound_violation_count"] == 0


def test_certify_n8_trinomial_has_sound_violations():
    res = run_cli("construct", "trinomial", "--k", "2", "--j", "1", "--t", "1",
                  "--analyze", "--certify")
    assert res.returncode == 0
    out = json.loads(res.stdout)["analysis"]
    assert out["classification"]["variant"] == "non_weakly_regular"
    assert out["cubic_like"]["complete"] is True
    assert out["wr_identities"]["pairs_checked"] == 10000
    assert out["wr_identities"]["sound_violation_count"] > 0


def test_verify_table1_json():
    res = run_cli("verify-table1", "--json")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["all_reproduced"] is True
    assert len(out["rows"]) == 5
    flags = {r["label"]: r["classification"]["dual_bent"] for r in out["rows"]}
    assert flags["sporadic_n3_x8_x14"] is True
    assert flags["sporadic_n6_g7x98"] is False
    assert all(r["status"] == "match" and r["primitive_exponent"] == 1 for r in out["rows"])


def test_verify_table1_flipped_expectation_is_one_classification_and_exit_5(
        monkeypatch, capsys):
    # one entry expects the wrong dual-bent flag: its row reads mismatch,
    # the command exits 5, and every entry is classified exactly once
    import dataclasses

    import pbent.catalog
    import pbent.cli
    entries = pbent.catalog.list_catalog()
    flipped = dataclasses.replace(entries[1], expected_dual_bent=not entries[1].expected_dual_bent)
    monkeypatch.setattr(pbent.cli, "list_catalog", lambda: [entries[0], flipped, *entries[2:]])
    calls = []
    real = pbent.catalog.classify
    monkeypatch.setattr(pbent.catalog, "classify", lambda f: calls.append(f) or real(f))
    assert pbent.cli.main(["verify-table1", "--json"]) == 5
    out = json.loads(capsys.readouterr().out)
    assert out["all_reproduced"] is False
    assert [r["status"] for r in out["rows"]] == ["match", "mismatch", "match", "match", "match"]
    assert len(calls) == 5


def test_spectrum_csv():
    res = run_cli("spectrum", "p=3 n=1 f=Tr(x^2)")
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "index,c0,c1"
    assert lines[1] == "0,1,2"
    assert len(lines) == 4


def test_property_suite_subset():
    res = run_cli("property-suite", "--seed", "7", "--only",
                  "mm_special_form,catalog,trinomial_closed_forms,"
                  "trinomial_second_derivatives")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["all_passed"] is True
    # output keeps the canonical battery order regardless of --only order
    assert [c["name"] for c in out["checks"]] == [
        "trinomial_second_derivatives", "trinomial_closed_forms", "catalog",
        "mm_special_form"]
    # an unknown name (alone or in a list) is a parse error, not an empty
    # pass; so is parseval, a check of pbent's own machinery that left the suite
    for only in ("bogus_name", "mm_special_form,catalgo", "parseval"):
        bad = run_cli("property-suite", "--only", only)
        assert bad.returncode == 2 and bad.stdout == ""
        err = json.loads(bad.stderr)["error"]
        assert err["kind"] == "parse_error"
        assert only.split(",")[-1] in err["message"]


def test_property_suite_empty_check_name_is_a_parse_error(monkeypatch, capsys):
    import pbent.cli
    import pbent.suite

    def never(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(pbent.suite, "ALL_CHECKS", [("catalog", never)])
    for only in ("", ",", "catalog,"):
        assert pbent.cli.main(["property-suite", "--only", only]) == 2
        out, err = capsys.readouterr()
        error = json.loads(err)["error"]
        assert out == "" and error["kind"] == "parse_error"
        assert error["message"] == "unknown check name(s): ''"


def test_construct_concat_and_add_quadratic(tmp_path):
    slices = tmp_path / "slices.txt"
    slices.write_text("\n".join(["p=3 n=2 f=Tr(x^2)"] * 3) + "\n")
    pi = tmp_path / "pi.json"
    pi.write_text("[0, 1, 2]")
    res = run_cli("construct", "concat", "--slices", str(slices),
                  "--pi", str(pi), "--analyze")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["construction"] == "special_form"
    assert out["analysis"]["bent"] is True

    res2 = run_cli("construct", "add-quadratic", "--f", "p=3 n=1 f=Tr(x^2)",
                   "--coeffs", "1", "--analyze")
    out2 = json.loads(res2.stdout)
    assert list(out2) == ["construction", "p", "n", "spectrally_bent", "analysis"]
    assert out2["spectrally_bent"] is True
    assert out2["analysis"]["bent"] is True


def test_add_quadratic_is_held_to_the_field_size_check_alone(capsys):
    # the verdict is one transform of q points, so the field's size check is
    # the only budget: n = 7 passes the default cap and exits 0
    import pbent.cli
    argv = ["construct", "add-quadratic", "--f", "p=3 n=7 f=Tr(x^2)",
            "--coeffs", "1,0,0,0,0,0,0"]
    assert pbent.cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out) == {"construction": "add_quadratic", "p": 3, "n": 7,
                               "spectrally_bent": True}
    assert pbent.cli.main(["--max-points", str(3 ** 7 - 1)] + argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == {
        "kind": "budget_error",
        "message": "field size 3^7 exceeds the spectrum budget 2186 (raise it with --max-points)"}


def test_add_quadratic_checks_its_coefficients_before_building_tables(monkeypatch, capsys):
    # a wrong count or a bad token is refused before f's tables and truth
    # table, under the default budget and one raised over the table cap
    import pbent.cli
    import pbent.gf

    def never(self):
        raise AssertionError("field tables built before --coeffs was checked")

    monkeypatch.setattr(pbent.gf.FieldCtx, "_build_tables", never)
    for budget, (coeffs, message) in itertools.product((3 ** 12, 3 ** 24), (
            ("1,0,0", "need exactly n=12 quadratic coefficients"),
            ("1" + ",0" * 10 + ",x", "coefficient 'x' is neither an integer nor g^<integer>"))):
        argv = ["--max-points", str(budget), "construct", "add-quadratic",
                "--f", "p=3 n=12 f=Tr(x^2)", "--coeffs", coeffs]
        assert pbent.cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["error"] == {"kind": "parse_error", "message": message}


def test_concat_without_pi_runs_plain_concatenation(tmp_path):
    slices = tmp_path / "slices.txt"
    slices.write_text("\n".join(["p=3 n=1 f=Tr(x^2)"] * 3) + "\n")
    res = run_cli("construct", "concat", "--slices", str(slices))
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["construction"] == "concatenation"
    assert out["report"]["applicable"] is True


def test_concat_slices_may_spell_out_the_default_modulus(tmp_path):
    # x + 1 is F_3's default modulus, so the three slices share one field
    slices = tmp_path / "slices.txt"
    slices.write_text("p=3 n=1 f=Tr(x^2)\np=3 n=1 mod=[1,1] f=Tr(x^2)\np=3 n=1 f=Tr(x^2)\n")
    res = run_cli("construct", "concat", "--slices", str(slices))
    assert res.returncode == 0, res.stderr
    plain = tmp_path / "plain.txt"
    plain.write_text("p=3 n=1 f=Tr(x^2)\n" * 3)
    assert res.stdout == run_cli("construct", "concat", "--slices", str(plain)).stdout


def _json_error(res, code, kind):
    assert res.returncode == code
    assert res.stdout == ""
    assert "Traceback" not in res.stderr
    assert json.loads(res.stderr)["error"]["kind"] == kind


def test_out_of_range_exponent_is_a_parse_error():
    _json_error(run_cli("analyze", "p=3 n=2 f=Tr(x^99)"), 2, "parse_error")


@pytest.mark.parametrize("spec", ["p=3 n=2 f=Tr(+)", "p=3 n=2 f=Tr(-)"])
def test_a_sign_without_a_term_is_a_parse_error(spec):
    _json_error(run_cli("analyze", spec), 2, "parse_error")


def test_construct_certify_without_analyze_is_a_parse_error():
    res = run_cli("construct", "trinomial", "--k", "1", "--j", "2", "--t", "1", "--certify")
    _json_error(res, 2, "parse_error")
    assert "--analyze" in json.loads(res.stderr)["error"]["message"]


def test_even_p_is_refused():
    _json_error(run_cli("analyze", "p=2 n=4 f=Tr(x^3)"), 3, "precondition_error")
    _json_error(run_cli("spectrum", "p=2 n=2 f=Tr(x)"), 3, "precondition_error")


def test_p_zero_with_a_modulus_is_a_parse_error(tmp_path, capsys):
    # the field cache's key reduces the modulus mod p, so p is checked first
    import pbent.cli
    slices = tmp_path / "slices.txt"
    slices.write_text("p=0 n=1 mod=[1,1] f=Tr(x^2)\n")
    for argv in (["analyze", "p=0 n=2 mod=[1,1,1] f=Tr(x)"],
                 ["construct", "add-quadratic", "--f", "p=0 n=2 mod=[1,1,1] f=Tr(x)",
                  "--coeffs", "1,0"],
                 ["construct", "concat", "--slices", str(slices)]):
        assert pbent.cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["error"] == {"kind": "parse_error",
                                            "message": "p must be prime, got 0"}


def test_bad_quadratic_coefficient_is_a_parse_error():
    # one ASCII grammar: g^<digits>, or <digits> with an optional leading minus
    for coeffs in ("a,0", "g^x,0", "1_0,0", "g^1_0,0", " +1,0", "\u0663,0", "g^-1,0"):
        _json_error(run_cli("construct", "add-quadratic", "--f", "p=3 n=2 f=Tr(x^2)",
                            "--coeffs=" + coeffs), 2, "parse_error")
    for coeffs in ("g^3,0", "1,0"):  # "-1,0" is checked with the usage errors
        res = run_cli("construct", "add-quadratic", "--f", "p=3 n=2 f=Tr(x^2)",
                      "--coeffs=" + coeffs)
        assert res.returncode == 0
        assert json.loads(res.stdout)["construction"] == "add_quadratic"


def test_usage_errors_are_json_parse_errors():
    quad = ("--f", "p=3 n=2 f=Tr(x^2)")
    for argv in (("analyze", "--bogus", "p=3 n=2 f=Tr(x^2)"),  # unknown flag
                 ("analyze",),  # missing positional
                 ("construct", "add-quadratic", *quad, "--coeffs", "-1,0")):  # leading minus
        res = run_cli(*argv)
        _json_error(res, 2, "parse_error")
        assert "usage:" not in res.stderr
    res = run_cli("construct", "add-quadratic", *quad, "--coeffs=-1,0")
    assert res.returncode == 0
    assert json.loads(res.stdout)["construction"] == "add_quadratic"
    res = run_cli("--help")
    assert res.returncode == 0
    assert "usage:" in res.stdout


def test_seed_is_not_an_option_of_concat_or_add_quadratic(tmp_path):
    slices = tmp_path / "slices.txt"
    slices.write_text("\n".join(["p=3 n=1 f=Tr(x^2)"] * 3) + "\n")
    for argv in (("construct", "concat", "--slices", str(slices), "--seed", "1"),
                 ("construct", "add-quadratic", "--f", "p=3 n=1 f=Tr(x^2)",
                  "--coeffs", "1", "--seed", "1")):
        res = run_cli(*argv)
        _json_error(res, 2, "parse_error")
        assert "--seed" in json.loads(res.stderr)["error"]["message"]


def test_one_parser_per_process_keeps_no_option_between_commands(capsys):
    # a parse error, a certified analysis with a seed, then a plain analysis
    # on the one cached parser: no option leaks into the next command, and
    # each command prints what it prints on a parser of its own
    import pbent.cli
    spec = "p=3 n=3 f=Tr(x^8+x^14)"
    argvs = [["analyze", spec, "--seed", "x"],
             ["analyze", spec, "--certify", "--seed", "5"],
             ["analyze", spec]]

    def run(argv):
        code = pbent.cli.main(argv)
        return (code, *capsys.readouterr())

    pbent.cli.build_parser.cache_clear()
    shared = [run(argv) for argv in argvs]
    assert pbent.cli.build_parser.cache_info()[:2] == (2, 1)  # hits, misses
    args = pbent.cli.build_parser().parse_args(argvs[2])
    assert args.certify is False and args.seed == 0
    fresh = []
    for argv in argvs:
        pbent.cli.build_parser.cache_clear()
        fresh.append(run(argv))
    assert [code for code, _, _ in shared] == [2, 0, 0]
    assert "wr_identities" in shared[1][1] and "wr_identities" not in shared[2][1]
    assert shared == fresh


def test_budget_refusal_builds_no_field_tables(monkeypatch, capsys):
    import pbent.cli
    import pbent.gf

    def never(self):
        raise AssertionError("field tables built before the budget check")

    monkeypatch.setattr(pbent.gf.FieldCtx, "_build_tables", never)
    assert pbent.cli.main(["--max-points", "100", "analyze", "p=3 n=12 f=Tr(g^5*x^2)"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "budget_error"


SMALL = ["--max-points", "81"]  # each of these asks for 3^5 = 243 points


@pytest.mark.parametrize("argv", [
    SMALL + ["analyze", "p=3 n=5 f=Tr(x^2)"],
    SMALL + ["spectrum", "p=3 n=5 f=Tr(x^2)"],
    SMALL + ["construct", "add-quadratic", "--f", "p=3 n=5 f=Tr(x^2)", "--coeffs", "1,0,0,0,0"],
    SMALL + ["construct", "concat", "--slices", "SLICES"],
    ["construct", "trinomial", "--k", "4", "--j", "1", "--t", "1"],
    ["analyze", "p=1000003 n=2 f=Tr(x)"],
    ["analyze", "p=1000000000000000000000000000057 n=1 f=Tr(x)"],
    ["analyze", "p=3 n=100000000 f=Tr(x)"],
    ["analyze", "p=4 n=100 f=Tr(x)"],  # sized before p is found not prime
    # a budget raised above the exp/log table cap 3^12 leaves the cap in force
    ["--max-points", str(10 ** 21), "analyze", "p=3 n=40 f=Tr(x)"],
    ["--max-points", str(10 ** 30), "construct", "trinomial", "--k", "15", "--j", "0",
     "--t", "1"],
], ids=["analyze", "spectrum", "add_quadratic", "concat_slice_line", "trinomial_k4",
        "p_7_digits", "p_31_digits", "n_1e8", "p_not_prime", "table_cap_spec",
        "table_cap_trinomial"])
def test_over_budget_field_is_refused_before_it_is_built(argv, tmp_path, monkeypatch,
                                                         capsys):
    import pbent.cli
    import pbent.gf

    def never(self, *args):
        raise AssertionError("FieldCtx built before the budget check")

    monkeypatch.setattr(pbent.gf, "_FIELD_CACHE", {})
    monkeypatch.setattr(pbent.gf.FieldCtx, "__init__", never)
    slices = tmp_path / "slices.txt"
    slices.write_text("p=3 n=5 f=Tr(x^2)\n")
    argv = [str(slices) if a == "SLICES" else a for a in argv]
    assert pbent.cli.main(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "budget_error"


@pytest.mark.parametrize("spec", ["p=%s n=1 f=Tr(x)" % ("7" * 5000),
                                  "p=3 n=2 f=Tr(x^%s)" % ("7" * 5000),
                                  "p=3 n=4 mod=[1-2,0,0,0,1] f=Tr(x)",
                                  "p=\u0663 n=2 f=Tr(x^\u0662)", "p=3 n=\u0662 f=Tr(x^2)",
                                  "p=3 n=2 f=Tr(\u0663*x^2)", "p=3 n=2 f=Tr(g^\u0663*x^2)",
                                  "p=3 n=2 f=Tr(x^2)+\u0661", "p=3 n=4 mod=[2,1\t,0,0,1] f=Tr(x)",
                                  "p=3 n=4 mod=[+2,1,0,0,1] f=Tr(x)"],
                         ids=["p", "exponent", "modulus_token", "arabic_p_and_exponent",
                              "arabic_n", "arabic_scalar", "arabic_g_power", "arabic_constant",
                              "modulus_tab", "modulus_plus"])
def test_integer_that_int_cannot_convert_is_a_parse_error(spec):
    # CPython's int() refuses decimals of more than 4,300 digits; the
    # modulus grammar admits tokens such as "1-2" that are no integer.
    # int() takes non-ASCII digits, a leading + and surrounding whitespace,
    # which the ASCII grammar refuses.
    _json_error(run_cli("analyze", spec), 2, "parse_error")


@pytest.mark.parametrize("argv", [
    ("analyze", "p=3 n=2 f=Tr(x^2)", "--seed", "\u0663"),
    ("analyze", "p=3 n=2 f=Tr(x^2)", "--seed", " 7 "),
    ("analyze", "p=3 n=2 f=Tr(x^2)", "--seed", "+7"),
    ("--max-points", "1_000", "analyze", "p=3 n=2 f=Tr(x^2)"),
    ("construct", "trinomial", "--k", "1", "--j", "2", "--t", "\u0661"),
    ("property-suite", "--seed", "1_0"),
], ids=["arabic_seed", "padded_seed", "plus_seed", "underscore_max_points",
        "arabic_trinomial_t", "underscore_suite_seed"])
def test_integer_option_outside_ascii_digits_is_a_parse_error(argv):
    # the integer options go through the spec grammars' parser, gf.parse_int
    _json_error(run_cli(*argv), 2, "parse_error")


def test_removed_knobs_are_parse_errors():
    for argv in (("analyze", "p=3 n=2 f=Tr(x^2)", "--timings"),
                 ("analyze", "p=3 n=2 f=Tr(x^2)", "--naive"),
                 ("spectrum", "p=3 n=2 f=Tr(x^2)", "--naive"),
                 ("verify-table1", "--no-search")):
        res = run_cli(*argv)
        _json_error(res, 2, "parse_error")
        assert argv[-1] in json.loads(res.stderr)["error"]["message"]


def test_paper_scale_trinomial_prints_its_coefficients(monkeypatch, capsys):
    import pbent.cli
    import pbent.gf
    from pbent.constructions import TrinomialParams, trinomial_bent
    from pbent.funcrep import parse_function_spec

    monkeypatch.setattr(pbent.gf, "_FIELD_CACHE", {})  # a cold field, as in a fresh process
    assert pbent.cli.main(["construct", "trinomial", "--k", "3", "--j", "6", "--t", "13"]) == 0
    out = json.loads(capsys.readouterr()[0])
    assert "?" not in out["function"]
    assert out["function"] == "Tr(x^29+g^265720*x^55+g^132860*x^730)"
    _, parsed = parse_function_spec("%s f=%s" % (out["field"], out["function"]))
    built = trinomial_bent(TrinomialParams(3, 6, 13))
    assert [(c.coeffs, e) for c, e in parsed.terms] == [(c.coeffs, e) for c, e in built.terms]


def test_tables_above_the_cap_are_a_budget_error():
    _json_error(run_cli("--max-points", "2000000", "analyze", "p=3 n=13 f=Tr(x^2)"),
                4, "budget_error")


def test_missing_slice_file_is_a_parse_error(tmp_path):
    _json_error(run_cli("construct", "concat", "--slices", str(tmp_path / "missing.txt")),
                2, "parse_error")


def test_malformed_permutation_file_is_a_parse_error(tmp_path):
    slices = tmp_path / "slices.txt"
    slices.write_text("\n".join(["p=3 n=2 f=Tr(x^2)"] * 3) + "\n")
    for body in ("[0, 1,", '{"a": 1}', '[0, "x", 2]', "[]", "[%s]" % ("7" * 5000)):
        pi = tmp_path / "pi.json"
        pi.write_text(body)
        _json_error(run_cli("construct", "concat", "--slices", str(slices),
                            "--pi", str(pi)), 2, "parse_error")


def test_concat_of_one_slice_is_refused_before_any_field_is_built(tmp_path, monkeypatch,
                                                                  capsys):
    import pbent.cli
    import pbent.constructions

    def never(*args):
        raise AssertionError("a field or form built for one slice")

    monkeypatch.setattr(pbent.constructions, "get_field", never)
    for name in ("check_field_size", "bent_concatenation", "mm_special_form"):
        monkeypatch.setattr(pbent.cli, name, never)
    slices = tmp_path / "slices.txt"
    slices.write_text("# one slice: m = 0\n\np=3 n=2 f=Tr(x^2)\n")
    pi = tmp_path / "pi.json"
    pi.write_text("[0]")
    for extra in ([], ["--pi", str(pi)]):
        assert pbent.cli.main(["construct", "concat", "--slices", str(slices)] + extra) == 3
        out, err = capsys.readouterr()
        error = json.loads(err)["error"]
        assert out == "" and error["kind"] == "precondition_error"
        assert "slice count 1" in error["message"] and "p^m slices, m >= 1" in error["message"]


def test_concat_over_budget_is_refused_before_combining(tmp_path, monkeypatch, capsys):
    import pbent.cli

    def never(*args):
        raise AssertionError("slices combined despite the budget")

    monkeypatch.setattr(pbent.cli, "bent_concatenation", never)
    monkeypatch.setattr(pbent.cli, "mm_special_form", never)
    slices = tmp_path / "slices.txt"
    slices.write_text("\n".join(["p=3 n=2 f=Tr(x^2)"] * 3) + "\n")
    pi = tmp_path / "pi.json"
    pi.write_text("[0, 1, 2]")
    # plain concatenation gives n = 3 (27 points), the special form n = 4 (81)
    for argv in (["--max-points", "26", "construct", "concat", "--slices", str(slices)],
                 ["--max-points", "80", "construct", "concat", "--slices", str(slices),
                  "--pi", str(pi)]):
        assert pbent.cli.main(argv) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["error"]["kind"] == "budget_error"
    res = run_cli("--max-points", "27", "construct", "concat", "--slices", str(slices))
    assert res.returncode == 0
    assert json.loads(res.stdout)["n"] == 3


@pytest.mark.parametrize("argv, transforms, inverse_runs", [
    (["construct", "trinomial", "--k", "2", "--j", "1", "--t", "1", "--analyze", "--certify"], 2, 1),
    (["analyze", "p=3 n=6 f=Tr(x^2)", "--certify"], 1, 0),
    (["construct", "trinomial", "--k", "1", "--j", "2", "--t", "1", "--analyze", "--certify"], 2, 1),
    (["analyze", "p=5 n=2 f=Tr(x^2)", "--certify"], 1, 0),
    (["analyze", "p=3 n=4 f=Tr(x^4+g^10*x^22)", "--certify"], 2, 1),
    (["analyze", "p=3 n=4 f=Tr(x^34+x^2)", "--certify"], 1, 0),
], ids=["trinomial_211", "quadratic_n6", "trinomial_121_exhaustive", "quadratic_p5_exhaustive",
        "sporadic_not_dual_bent", "binomial_degree_4"])
def test_certify_transforms_each_function_once(argv, transforms, inverse_runs, monkeypatch,
                                               capsys):
    # f once, and the dual of an f that is not weakly regular once (by
    # `classify`; the battery of a weakly regular f, the quadratics and the
    # binomial, reads weak regularity off f's own signs and transforms
    # nothing), at every degree: a row transforms no derivative.  The rows
    # walked in their own right, all but a row -c walked after row c, share
    # one inverse run, a lane each where the phase difference is nonzero:
    # none for a weakly regular f (the quadratics and the binomial), one
    # for the (1, 2, 1) trinomial (27 of its 41 rows, in the exhaustive
    # walk of q = 81), the (2, 1, 1) one (both sampled rows) and the
    # sporadic function, whose dual is not bent (all 41 rows, on the
    # product path).
    import pbent.cli
    import pbent.derivanalysis
    import pbent.walsh

    built, inverse = [], []
    init = pbent.walsh.WalshSpectrum.__init__
    inverse_sums = pbent.derivanalysis.inverse_sums

    def counting(self, *args):
        built.append(args[0])
        init(self, *args)

    def counting_inverse(ctx, coords):
        inverse.append(ctx)
        return inverse_sums(ctx, coords)

    monkeypatch.setattr(pbent.walsh.WalshSpectrum, "__init__", counting)
    monkeypatch.setattr(pbent.derivanalysis, "inverse_sums", counting_inverse)
    assert pbent.cli.main(argv) == 0
    capsys.readouterr()
    assert (len(built), len(inverse)) == (transforms, inverse_runs)


def test_dual_form_over_its_limit_is_refused_before_any_transform(monkeypatch, capsys):
    import pbent.cli

    def never(f):
        raise AssertionError("transform run before the --dual-form limit check")

    monkeypatch.setattr(pbent.cli, "walsh_fast", never)
    assert pbent.cli.DUAL_FORM_MAX_POINTS == 3 ** 9
    assert pbent.cli.main(["analyze", "p=3 n=10 f=Tr(g^1*x^2)", "--dual-form"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "budget_error"


def test_trinomial_certify_without_analyze_is_a_parse_error():
    _json_error(run_cli("construct", "trinomial", "--k", "1", "--j", "0", "--t", "1",
                        "--certify"), 2, "parse_error")


def test_certify_above_degree_3_is_refused_above_its_limit(monkeypatch, capsys):
    # the witness scan of a degree > 3 input reads about q^2 point pairs
    import pbent.cli

    def never(f):
        raise AssertionError("certificate built above the --certify limit")

    monkeypatch.setattr(pbent.cli, "cubic_like_certificate", never)
    assert pbent.cli.CERTIFY_SCAN_MAX_POINTS == 5 ** 5
    assert pbent.cli.main(["analyze", "p=3 n=8 f=Tr(x^14)", "--certify"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == {
        "kind": "budget_error",
        "message": "--certify above degree 3 is limited to field size 3125, got 6561"}


def test_certify_limit_admits_its_field_size_and_runs_without_certify(monkeypatch):
    import pbent.cli

    calls = []
    monkeypatch.setattr(pbent.cli, "analyze_function",
                        lambda f, **kw: calls.append((f.ctx.q, f.algebraic_degree(), kw)) or {})
    assert pbent.cli.main(["analyze", "p=5 n=5 f=Tr(x^4)", "--certify"]) == 0
    assert pbent.cli.main(["analyze", "p=3 n=8 f=Tr(x^14)"]) == 0  # no --certify
    assert calls == [(3125, 4, {"certify": True, "dual_form": False, "seed": 0}),
                     (6561, 4, {"certify": False, "dual_form": False, "seed": 0})]
    # a quadratic above the limit: test_certify_n8_quadratic_is_sound_clean


def test_internal_inconsistency_is_exit_5_with_a_json_error(monkeypatch, capsys):
    import pbent.cli
    from pbent.errors import InternalInconsistency

    def broken(f, **kw):
        raise InternalInconsistency("planted")

    monkeypatch.setattr(pbent.cli, "analyze_function", broken)
    assert pbent.cli.main(["analyze", "p=3 n=2 f=Tr(x^2)"]) == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": {"kind": "internal_inconsistency", "message": "planted"}}
