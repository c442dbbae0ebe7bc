"""Curated known functions: the five sporadic ternary non-weakly regular
examples with one or two trace terms, the weakly regular binomial over
F_3^4, and quadratic baselines, each with its expected classification.

Coefficients written as powers of g are read with g the pinned primitive
element of the pinned default field (`gf.get_field`), the realization every
entry was validated under, so verify_entry classifies each spec once, as
written.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .funcrep import parse_function_spec
from .walsh import Classification, classify

_DATA_FILE = "catalog_data.json"


@dataclass(frozen=True)
class CatalogEntry:
    label: str
    spec: str
    expected_variant: str
    expected_dual_bent: bool | None
    note: str


def list_catalog() -> list[CatalogEntry]:
    """All built-in entries, in the stable order of the data file."""
    raw = json.loads(resources.files("pbent").joinpath(_DATA_FILE).read_text())
    return [CatalogEntry(
        label=e["label"],
        spec=e["spec"],
        expected_variant=e["expected"]["variant"],
        expected_dual_bent=e["expected"].get("dual_bent"),
        note=e.get("note", ""),
    ) for e in raw["entries"]]


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


def verify_entry(entry: CatalogEntry) -> dict:
    """Classify an entry's spec, as written, against its expectation.

    Returns {"status": "match" | "mismatch", "classification": cls}.
    """
    _, tf = parse_function_spec(entry.spec)
    cls = classify(tf.truth_table())
    return {"status": "match" if _matches(cls, entry) else "mismatch", "classification": cls}
