"""Command-line front end.

Subcommands: analyze, construct {trinomial, concat, add-quadratic},
verify-table1, property-suite, spectrum.  Reports are JSON on stdout with a
fixed key order, so identical inputs (and seed) produce byte-identical
output.  Every field a command reads or builds is sized against
--max-points (`gf.check_field_size`, from p and n alone) before it is
built, so an over-budget request is refused before any primality test,
modulus search or table.  A field read from a function spec, and a
trinomial's field, is also held to the exp/log table cap 3^12, since its
functions are evaluated through those tables; concat's combined field is
held to --max-points alone.  The integer options are read by the spec
grammars' `gf.parse_int` (ASCII -?[0-9]+).  Errors print a
machine-readable object on stderr and exit with a distinct code per
failure kind: 2 parse, 3 precondition, 4 budget, 5 internal inconsistency.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .catalog import list_catalog, verify_entry
from .constructions import (TrinomialParams, add_quadratic, bent_concatenation,
                            mm_special_form, outer_degree, trinomial_bent)
from .derivanalysis import cubic_like_certificate, wr_identity_check
from .errors import (BudgetError, InternalInconsistency, ParseError,
                     PreconditionError)
from .funcrep import (PFunction, parse_coeff, parse_function_spec,
                      to_relative_trace_form)
from .gf import check_field_size, parse_int
from .walsh import classify, extract_certificate, walsh_fast

EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5

DEFAULT_SPECTRUM_BUDGET = 3 ** 12
# `analyze --dual-form` interpolates about q/n character sums of q terms each
DUAL_FORM_MAX_POINTS = 3 ** 9
# `analyze --certify` above degree 3 scans about q^2 point pairs for its witnesses
CERTIFY_SCAN_MAX_POINTS = 5 ** 5


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def analyze_function(f: PFunction, certify: bool = False, dual_form: bool = False,
                     seed: int = 0) -> dict:
    """Assemble the analysis report dict (ordered, JSON-ready)."""
    spectrum = walsh_fast(f)
    cls = classify(f)
    report = {
        "p": f.ctx.p,
        "n": f.ctx.n,
        "bent": cls.bent,
        "classification": cls.to_json(),
        "algebraic_degree": f.algebraic_degree(),
        "provenance": spectrum.provenance,
    }
    if cls.bent:
        cert = extract_certificate(spectrum)
        report["sign_histogram"] = cert.sign_histogram()
        report["dual_degree"] = cert.dual.algebraic_degree()
        report["dual_bent"] = cls.dual_bent
        if dual_form:
            dform = to_relative_trace_form(cert.dual)
            report["dual_relative_trace_form"] = {
                "nonlinear_terms": dform.nonlinear_term_count(),
                "entries": [[j, "g^%d" % f.ctx.log_table[a.index]]
                            for j, a in dform.entries],
                "top_coeff": dform.top_coeff,
            }
    if certify:
        cert3 = cubic_like_certificate(f)
        report["cubic_like"] = cert3.to_json()
        report["cubic_like"]["implies_bent"] = cert3.complete
        if cls.bent:
            wr = wr_identity_check(f, seed=seed, certificate=cert3)
            report["wr_identities"] = wr.to_json()
    return report


def cmd_analyze(args) -> int:
    ctx, tf = parse_function_spec(args.spec, args.max_points)
    if args.dual_form and ctx.q > DUAL_FORM_MAX_POINTS:
        raise BudgetError("--dual-form is limited to field size %d, got %d"
                          % (DUAL_FORM_MAX_POINTS, ctx.q))
    f = tf.truth_table()
    if args.certify and ctx.q > CERTIFY_SCAN_MAX_POINTS and f.algebraic_degree() > 3:
        raise BudgetError("--certify above degree 3 is limited to field size %d, got %d"
                          % (CERTIFY_SCAN_MAX_POINTS, ctx.q))
    report = analyze_function(f, certify=args.certify, dual_form=args.dual_form, seed=args.seed)
    out = {"input": args.spec}
    out.update(report)
    _emit(out)
    return 0


def cmd_spectrum(args) -> int:
    ctx, tf = parse_function_spec(args.spec, args.max_points)
    spectrum = walsh_fast(tf.truth_table())
    width = ctx.p - 1
    sys.stdout.write("index," + ",".join("c%d" % i for i in range(width)) + "\n")
    for idx, coords in enumerate(spectrum.coords):
        sys.stdout.write("%d,%s\n" % (idx, ",".join(map(str, coords))))
    return 0


def cmd_construct_trinomial(args) -> int:
    if args.certify and not args.analyze:
        raise ParseError("--certify needs --analyze: the certificate is part of the analysis")
    params = TrinomialParams(args.k, args.j, args.t)
    check_field_size(3, params.n, args.max_points, tables=True)
    ctx = params.context()
    tf = trinomial_bent(params, ctx)
    out = {
        "family": "trinomial",
        "k": args.k, "j": args.j, "t": args.t,
        "p": 3, "n": params.n,
        "field": ctx.spec_string(),
        "function": tf.spec_string(),
    }
    if args.analyze:
        f = tf.truth_table()
        out["analysis"] = analyze_function(f, certify=args.certify, seed=args.seed)
    _emit(out)
    return 0


def _read_input_file(path: str, what: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError("cannot read %s %s: %s" % (what, path, exc)) from None


def _parse_slice_file(path: str, max_points: int) -> list:
    lines = [line.strip() for line in _read_input_file(path, "slice file").splitlines()]
    slices = [parse_function_spec(line, max_points)[1].truth_table()
              for line in lines if line and not line.startswith("#")]
    if not slices:
        raise ParseError("slice file %s contains no function specs" % path)
    if any(sl.ctx is not slices[0].ctx for sl in slices):
        raise ParseError("all slices must share one field spec")
    return slices


def _parse_pi_file(path: str) -> list:
    try:
        pi = json.loads(_read_input_file(path, "permutation file"))
    except ValueError as exc:  # JSONDecodeError, or an int over CPython's digit limit
        raise ParseError("permutation file %s is not JSON: %s" % (path, exc)) from None
    if not (isinstance(pi, list) and pi and all(type(v) is int for v in pi)):
        raise ParseError("permutation file %s must hold a nonempty list of integers" % path)
    return pi


def cmd_construct_concat(args) -> int:
    slices = _parse_slice_file(args.slices, args.max_points)
    pi = _parse_pi_file(args.pi) if args.pi else None
    m = outer_degree(slices)
    if pi and len(pi) != len(slices):
        raise PreconditionError("permutation length must be p^d and match slice count")
    check_field_size(slices[0].ctx.p, slices[0].ctx.n + (2 * m if pi else m), args.max_points)
    if pi:
        f, rep = mm_special_form(slices, pi)
        mode = "special_form"
    else:
        f, rep = bent_concatenation(slices)
        mode = "concatenation"
    out = {"construction": mode, "p": f.ctx.p, "n": f.ctx.n,
           "report": {k: (v if not isinstance(v, PFunction) else "function(%d points)" % f.ctx.q)
                      for k, v in rep.items()}}
    if args.analyze:
        out["analysis"] = analyze_function(f)
    _emit(out)
    return 0


def cmd_construct_add_quadratic(args) -> int:
    ctx, tf = parse_function_spec(args.f, args.max_points)
    coeff_tokens = args.coeffs.split(",")
    if len(coeff_tokens) != ctx.n:
        raise ParseError("need exactly n=%d quadratic coefficients" % ctx.n)
    coeffs = [parse_coeff(ctx, tok) for tok in coeff_tokens]
    g, rep = add_quadratic(tf.truth_table(), coeffs)
    out = {"construction": "add_quadratic", "p": ctx.p, "n": ctx.n,
           "spectrally_bent": rep["spectrally_bent"]}
    if args.analyze:
        out["analysis"] = analyze_function(g)
    _emit(out)
    return 0


def cmd_verify_table1(args) -> int:
    entries = [e for e in list_catalog() if e.label.startswith("sporadic_")]
    rows = []
    ok = True
    for entry in entries:
        res = verify_entry(entry)
        ok = ok and res["status"] == "match"
        # every spec is written for the pinned primitive element g = g^1
        rows.append({
            "label": entry.label,
            "spec": entry.spec,
            "status": res["status"],
            "primitive_exponent": 1,
            "classification": res["classification"].to_json(),
        })
    out = {"all_reproduced": ok, "rows": rows}
    if args.json:
        _emit(out)
    else:
        for row in rows:
            sys.stdout.write("%-28s %-20s exponent=%d %s\n" % (
                row["label"], row["status"], row["primitive_exponent"],
                json.dumps(row["classification"])))
        sys.stdout.write("all_reproduced=%s\n" % ok)
    return 0 if ok else EXIT_INTERNAL


def cmd_property_suite(args) -> int:
    from .suite import run_suite  # loaded by this command alone
    names = None if args.only is None else args.only.split(",")
    records = run_suite(seed=args.seed, level=args.level, names=names)
    ok = all(r["passed"] for r in records)
    _emit({"seed": args.seed, "level": args.level, "all_passed": ok,
           "checks": records})
    return 0 if ok else EXIT_INTERNAL


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors (unknown flag, missing argument, bad value) raise
    ParseError, so they exit 2 with a JSON error like any other parse
    failure; subparsers inherit the class."""

    def error(self, message):
        raise ParseError(message)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: `parse_args` keeps
    no state between calls, so in-process callers of `main` share it."""
    ap = _ArgumentParser(
        prog="pbent",
        description="Exact Walsh-spectrum analysis of p-ary functions")
    ap.add_argument("--max-points", type=parse_int, default=DEFAULT_SPECTRUM_BUDGET,
                    help="largest field size p^n a command may read or build")
    sub = ap.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="classify a function given in the spec grammar")
    p_an.add_argument("spec", help='e.g. "p=3 n=3 f=Tr(x^8+x^14)"')
    p_an.add_argument("--certify", action="store_true",
                      help="add cubic-like and derivative-identity reports")
    p_an.add_argument("--dual-form", action="store_true",
                      help="include the dual's relative trace form")
    p_an.add_argument("--seed", type=parse_int, default=0)
    p_an.set_defaults(fn=cmd_analyze)

    p_sp = sub.add_parser("spectrum", help="dump the exact spectrum as CSV")
    p_sp.add_argument("spec")
    p_sp.set_defaults(fn=cmd_spectrum)

    p_c = sub.add_parser("construct", help="generate functions from the built-in families")
    csub = p_c.add_subparsers(dest="family", required=True)

    p_tri = csub.add_parser("trinomial", help="the cubic non-weakly regular family")
    p_tri.add_argument("--k", type=parse_int, required=True)
    p_tri.add_argument("--j", type=parse_int, required=True)
    p_tri.add_argument("--t", type=parse_int, required=True)
    p_tri.add_argument("--analyze", action="store_true")
    p_tri.add_argument("--certify", action="store_true")
    p_tri.add_argument("--seed", type=parse_int, default=0)
    p_tri.set_defaults(fn=cmd_construct_trinomial)

    p_cc = csub.add_parser("concat", help="bent concatenation from a slice file")
    p_cc.add_argument("--slices", required=True,
                      help="file with one function spec per line")
    p_cc.add_argument("--pi", help="JSON permutation file; selects the special form")
    p_cc.add_argument("--analyze", action="store_true")
    p_cc.set_defaults(fn=cmd_construct_concat)

    p_aq = csub.add_parser("add-quadratic", help="add a pure quadratic to a bent function")
    p_aq.add_argument("--f", required=True, help="function spec of the base function")
    p_aq.add_argument("--coeffs", required=True,
                      help='n comma-separated coefficients, e.g. "1,0" or "g^3,0"; '
                           'write a leading minus as --coeffs=-1,0')
    p_aq.add_argument("--analyze", action="store_true")
    p_aq.set_defaults(fn=cmd_construct_add_quadratic)

    p_vt = sub.add_parser("verify-table1", help="reproduce the sporadic example table")
    p_vt.add_argument("--json", action="store_true")
    p_vt.set_defaults(fn=cmd_verify_table1)

    p_ps = sub.add_parser("property-suite", help="run the seeded checks of the paper's claims")
    p_ps.add_argument("--seed", type=parse_int, default=0)
    p_ps.add_argument("--level", choices=("quick", "full"), default="quick")
    p_ps.add_argument("--only",
                      help="comma-separated check names; an unknown name is a parse error")
    p_ps.set_defaults(fn=cmd_property_suite)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.fn(args)
    except ParseError as exc:  # gf.FieldError included
        _fail("parse_error", exc)
        return EXIT_PARSE
    except PreconditionError as exc:
        _fail("precondition_error", exc)
        return EXIT_PRECONDITION
    except BudgetError as exc:
        _fail("budget_error", exc)
        return EXIT_BUDGET
    except InternalInconsistency as exc:
        _fail("internal_inconsistency", exc)
        return EXIT_INTERNAL


def _fail(kind: str, exc: Exception) -> None:
    json.dump({"error": {"kind": kind, "message": str(exc)}}, sys.stderr)
    sys.stderr.write("\n")


if __name__ == "__main__":
    sys.exit(main())
