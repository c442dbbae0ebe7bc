"""The CLI contract under a seeded grammar fuzzer.

Commands are drawn from tokens of the spec grammar: p (0, 1, even, odd
primes, a composite, a padded digit), n, an optional `mod=` list, terms
with and without coefficients and exponents, signs, and constant tails,
for `analyze` (with `--certify`, `--dual-form` and `--seed`), `spectrum`
and `construct add-quadratic --coeffs`, some under `--max-points`.  Every
command must exit 0 with JSON on stdout (the CSV header for `spectrum`),
or exit 2-5 with one JSON error on stderr whose kind matches the code; no
exception may escape `cli.main`; and a second run, on the fields and
parser the first one left cached, must print the same bytes.
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


def _run(argv, capsys):
    code = pbent.cli.main(argv)  # an exception escaping main fails the test here
    out, err = capsys.readouterr()
    return code, out, err


def test_fuzzed_commands_keep_the_cli_contract(capsys):
    rng = random.Random(0)
    codes = set()
    for _ in range(1000):
        argv = _command(rng)
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
        codes.add(code)
    # every exit but 5: an internal inconsistency is a bug, never a user mistake
    assert codes == {0, 2, 3, 4}
