"""The CLI contract under a seeded grammar fuzzer.

Commands are drawn from tokens of the spec grammar: p (0, 1, even, odd
primes, a composite, a padded digit), n, an optional `mod=` list, terms
with and without coefficients and exponents, signs, and constant tails,
for `analyze` (with `--certify`, `--dual-form` and `--seed`), `spectrum`
and `construct add-quadratic --coeffs`, some under `--max-points`.  A
second draw covers the CLI's file inputs and name lists: `construct concat`
with seeded `--slices` and `--pi` files, written under pytest's tmp_path,
and `property-suite --only`.  Every command must exit 0 with JSON on stdout
(the CSV header for `spectrum`), or exit 2-5 with one JSON error on stderr
whose kind matches the code; no exception may escape `cli.main`; and a
second run, on the fields and parser the first one left cached, must print
the same bytes.
"""

import json
import random

import pbent.cli

KINDS = {2: "parse_error", 3: "precondition_error", 4: "budget_error",
         5: "internal_inconsistency"}

P = ["3"] * 8 + ["5"] * 4 + ["7"] * 2 + ["0", "1", "2", "9", "03", "x"]
N = ["1"] * 4 + ["2"] * 6 + ["3"] * 3 + ["0", "", "-1"]
MOD = [None] * 30 + ["[1,1]", "[2,1]", "[0,1]", "[1,1,1]", "[2,2,1]", "[2,1,1]", "[1,0,1]",
                     "[1,2,0,1]", "[0,0,1]", "[2,1,0,0,1]", "[]", "[1,-1,1]", "[3, 1,1]",
                     "[1,+1,1]"]
COEFF = [""] * 8 + ["g^1*", "g^10*", "g^3", "2*", "2", "-1*", "0*", "g^", "g^5*"]
EXP = ["^2"] * 6 + ["", "^4", "^6", "^8", "^14", "^22", "^0", "^99", "^-1", "^"]
CONST = [""] * 8 + ["+1", "-2", "+0", "+", "x"]
COEFFS = ["1", "1", "0", "0", "g^3", "-1", "2", "g^", "x", ""]
MAX_POINTS = ["9", "27", "81", "243", "0", "-1", "x"]


def _spec(rng):
    field = "p=%s n=%s" % (rng.choice(P), rng.choice(N))
    mod = rng.choice(MOD)
    if mod:
        field += " mod=" + mod
    body = ""
    for i in range(rng.choice([0, 1, 1, 2, 2, 3])):
        sign = rng.choice(["+", "+", "-"]) if i else rng.choice(["", "", "", "-", "+"])
        body += sign + rng.choice(COEFF) + "x" + rng.choice(EXP)
    return "%s f=Tr(%s)%s" % (field, body, rng.choice(CONST))


def _command(rng):
    spec = _spec(rng)
    kind = rng.choice(["analyze", "analyze", "spectrum", "add-quadratic"])
    if kind == "analyze":
        argv = ["analyze", spec]
        for flag, share in (("--certify", 0.4), ("--dual-form", 0.2)):
            if rng.random() < share:
                argv.append(flag)
        if rng.random() < 0.2:
            argv += ["--seed", rng.choice(["0", "7", "-3", "12", "x"])]
    elif kind == "spectrum":
        argv = ["spectrum", spec]
    else:
        coeffs = ",".join(rng.choice(COEFFS) for _ in range(rng.choice([1, 2, 2, 3])))
        argv = ["construct", "add-quadratic", "--f", spec, "--coeffs=" + coeffs]
    if rng.random() < 0.2:
        argv = ["--max-points", rng.choice(MAX_POINTS)] + argv
    return argv


# `construct concat` reads a slice file (one spec per line, blank and # lines
# skipped) and an optional --pi JSON file; `property-suite --only` a name list
SLICES = {"p=3 n=1": ["f=Tr(x^2)", "f=Tr(2*x^2)+1"], "p=3 n=2": ["f=Tr(x^2)", "f=Tr(g^1*x^2)"],
          "p=5 n=1": ["f=Tr(x^2)", "f=Tr(2*x^2)-1"]}
NOT_BENT = ["f=Tr(x)", "f=Tr()", "f=Tr(x^4)"]
BLANK = ["", "  ", "# a comment", "  # indented comment"]
BAD_LINE = ["p=3 n=1 f=Tr(x", "p=4 n=1 f=Tr(x)", "p=3 n=9 f=Tr(x^2)", "x"]
PI = ["[0,", "{}", "3", "[]", "[true, false, 1]", "[0.0, 1.0, 2.0]", "[0, 0, 1]", "[0, 1]",
      "[0]", "[1, 2, 0]", "[%s]" % ("9" * 5000), "\xff"]
CHECKS = ["parseval", "derivative_identities", "cyclotomic_ring", "trinomial_family",
          "mm_special_form", "dual_derivative_balance"]


def _slice_lines(rng):
    """Lines of a slice file for 0, 1, 2, p or p^2 slices (one field, or
    now and then mixed fields, a non-bent slice, a bad line), and the
    slice count."""
    field = rng.choice(sorted(SLICES))
    p = int(field[2])
    count = rng.choice([1, p, p, p * p, p * p, 2, 0])
    lines = []
    for _ in range(count):
        if rng.random() < 0.3:
            lines.append(rng.choice(BLANK))
        if rng.random() < 0.02:
            lines.append(rng.choice(BAD_LINE))
        spec = rng.choice(NOT_BENT if rng.random() < 0.03 else SLICES[field])
        other = rng.choice(sorted(SLICES)) if rng.random() < 0.03 else field
        lines.append("%s %s" % (other, spec))
    return lines, count


def _file_command(rng, tmp):
    """A seeded `construct concat` (its files written under tmp) or
    `property-suite --only` command."""
    if rng.random() < 0.25:
        names = [rng.choice(CHECKS + ["", " parseval", "nope"])
                 for _ in range(rng.choice([1, 1, 2, 3]))]
        return ["property-suite", "--only", ",".join(names)]
    lines, count = _slice_lines(rng)
    (tmp / "slices.txt").write_text("\n".join(lines) + "\n")
    argv = ["construct", "concat", "--slices", str(tmp / "slices.txt")]
    if rng.random() < 0.4:
        pi = list(range(count))
        rng.shuffle(pi)
        text = rng.choice(PI + [str(pi)] * 12)
        (tmp / "pi.json").write_bytes(text.encode("latin-1"))
        argv += ["--pi", str(tmp / "pi.json")]
    if rng.random() < 0.3:
        argv.append("--analyze")
    if rng.random() < 0.15:
        argv = ["--max-points", rng.choice(MAX_POINTS)] + argv
    return argv


def _run(argv, capsys):
    code = pbent.cli.main(argv)  # an exception escaping main fails the test here
    out, err = capsys.readouterr()
    return code, out, err


def _check(argv, capsys) -> int:
    """Run argv twice; assert the contract and the same bytes, return the exit code."""
    code, out, err = result = _run(argv, capsys)
    if code == 0:
        assert err == "", argv
        if argv[-2] == "spectrum":
            assert out.startswith("index,c0"), argv
        else:
            json.loads(out)
    else:
        assert code in KINDS and out == "", (argv, code)
        assert err.count("\n") == 1, argv
        error = json.loads(err)["error"]
        assert error["kind"] == KINDS[code] and error["message"], argv
    assert _run(argv, capsys) == result, argv
    return code


def test_fuzzed_commands_keep_the_cli_contract(capsys):
    rng = random.Random(0)
    codes = {_check(_command(rng), capsys) for _ in range(1000)}
    # every exit but 5: an internal inconsistency is a bug, never a user mistake
    assert codes == {0, 2, 3, 4}


def test_fuzzed_file_inputs_keep_the_cli_contract(tmp_path, capsys):
    rng = random.Random(0)
    codes = {_check(_file_command(rng, tmp_path), capsys) for _ in range(150)}
    assert codes == {0, 2, 3, 4}
