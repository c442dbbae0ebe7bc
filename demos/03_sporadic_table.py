"""Tour 3: reproducing the sporadic non-weakly regular examples.

The catalog ships five ternary functions with one or two trace terms that
classify non-weakly regular, together with whether their dual is bent.
Coefficients written as powers of g are read with g the pinned primitive
element of the default field, the realization every entry was validated
under, so each entry is classified once, as written.

Run:  python demos/03_sporadic_table.py
"""

import pbent as pb

print("%-29s %-33s %-22s %s" % ("label", "spec", "expected", "got"))
for entry in pb.list_catalog():
    res = pb.verify_entry(entry)
    cls = res["classification"]
    expected = entry.expected_variant
    if entry.expected_dual_bent is not None:
        expected += "/db" if entry.expected_dual_bent else "/ndb"
    got = cls.variant
    if cls.dual_bent is not None:
        got += "/db" if cls.dual_bent else "/ndb"
    print("%-29s %-33s %-22s %-24s %s"
          % (entry.label, entry.spec.split("f=")[1], expected, got, res["status"]))

print("\nthe same check is scriptable:  pbent verify-table1 --json")
