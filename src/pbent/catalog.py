"""Curated known functions: the five sporadic ternary non-weakly regular
examples with one or two trace terms, the weakly regular binomial over
F_3^4, and quadratic baselines, each with its expected classification.

Coefficients written as powers of a primitive element are sensitive to
which primitive element realizes them.  verify_entry therefore first tries
the exponent pinned in the data file (recorded when the entry was first
validated), and on a mismatch re-tries every reinterpretation g -> g^s
with gcd(s, p^n - 1) = 1, reporting the validating exponent if any.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

from .funcrep import TraceForm, parse_function_spec
from .walsh import Classification, classify

_DATA_FILE = "catalog_data.json"


@dataclass(frozen=True)
class CatalogEntry:
    label: str
    spec: str
    expected_variant: str
    expected_dual_bent: bool | None
    pinned_exponent: int
    note: str


def list_catalog() -> list[CatalogEntry]:
    """All built-in entries, in the stable order of the data file."""
    raw = json.loads(resources.files("pbent").joinpath(_DATA_FILE).read_text())
    return [CatalogEntry(
        label=e["label"],
        spec=e["spec"],
        expected_variant=e["expected"]["variant"],
        expected_dual_bent=e["expected"].get("dual_bent"),
        pinned_exponent=e.get("pinned_exponent", 1),
        note=e.get("note", ""),
    ) for e in raw["entries"]]


def reinterpret_trace_form(tf: TraceForm, s: int) -> TraceForm:
    """Re-read every coefficient g^m as g^(s m): the trace form as it would
    have been written down using the primitive element g^s."""
    ctx = tf.ctx
    ctx.ensure_tables()
    terms = []
    for coeff, exp in tf.terms:
        m = ctx.log_table[coeff.index]
        terms.append((ctx.from_index(ctx.exp_table[(m * s) % ctx.order]), exp))
    return TraceForm(ctx, terms, tf.constant)


def _matches(cls: Classification, entry: CatalogEntry) -> bool:
    if entry.expected_variant == "weakly_regular":
        # regular is the all-plus-signs subcase of weakly regular
        if cls.variant not in ("weakly_regular", "regular"):
            return False
    elif cls.variant != entry.expected_variant:
        return False
    if entry.expected_dual_bent is not None and cls.dual_bent != entry.expected_dual_bent:
        return False
    return True


def verify_entry(entry: CatalogEntry, search: bool = True) -> dict:
    """Classify an entry, trying the pinned realization first and then, on
    mismatch, every coprime power of the primitive element.

    Returns {"status": "match" | "primitive_dependent" | "mismatch", ...}.
    """
    ctx, tf = parse_function_spec(entry.spec)
    order = ctx.order

    def classify_under(s: int) -> Classification:
        form = tf if s == 1 else reinterpret_trace_form(tf, s)
        return classify(form.truth_table())

    tried = {}
    first = classify_under(entry.pinned_exponent)
    tried[entry.pinned_exponent] = first
    if _matches(first, entry):
        status = "match" if entry.pinned_exponent == 1 else "primitive_dependent"
        return {"status": status, "exponent": entry.pinned_exponent,
                "classification": first, "label": entry.label}
    if search:
        for s in range(1, order):
            if s in tried or math.gcd(s, order) != 1:
                continue
            cls = classify_under(s)
            if _matches(cls, entry):
                return {"status": "primitive_dependent", "exponent": s,
                        "classification": cls, "label": entry.label}
    return {"status": "mismatch", "exponent": entry.pinned_exponent,
            "classification": first, "label": entry.label}
