"""Tour 4: building new bent functions from old ones.

Run:  python demos/04_constructions.py
"""

import pbent as pb

F3 = pb.get_field(3, 1)
F9 = pb.get_field(3, 2)
quad = pb.TraceForm(F9, [(F9.one(), 2)]).truth_table()

# ---------------------------------------------------------------------------
# Concatenation: slices f_y on the inner field, one per outer element
# ---------------------------------------------------------------------------
slices = [pb.PFunction(F3, [(x * x + y * x) % 3 for x in range(3)])
          for y in range(3)]
f, rep = pb.bent_concatenation(slices)
print("concatenated x^2 + yx slices: applicable=%s bent=%s -> %s"
      % (rep["applicable"], rep["bent"], pb.classify(f)))

# identical slices make every dual section constant, hence nothing bent
g3 = pb.PFunction(F3, [0, 1, 1])
f2, rep2 = pb.bent_concatenation([g3] * 9)
print("nine identical slices:        applicable=%s bent=%s"
      % (rep2["applicable"], rep2["bent"]))

# ---------------------------------------------------------------------------
# The special form g_{y2}(x) + y1 * pi(y2) needs no condition at all
# ---------------------------------------------------------------------------
f3, rep3 = pb.mm_special_form([g3, g3, g3], [1, 2, 0])
print("\nspecial form with a 3-cycle:", pb.classify(f3))

# mixing slice signs yields non-weakly regular output
signs = {m: pb.extract_certificate(pb.walsh_fast(
    pb.TraceForm(F9, [(F9.gen_power(m), 2)]).truth_table())).signs[0]
    for m in range(2)}
flipped = pb.TraceForm(F9, [(F9.gen_power(1), 2)]).truth_table()
print("slice signs Tr(x^2)/Tr(gx^2):", signs[0], signs[1])
f4, _ = pb.mm_special_form([quad, quad, flipped], range(3))
print("mixed-sign construction:", pb.classify(f4))

# ---------------------------------------------------------------------------
# Adding a never-vanishing quadratic to a weakly regular bent function
# ---------------------------------------------------------------------------
for n in (1, 2, 3):
    found = pb.nonvanishing_quadratic_search(3, n)
    print("\nnonvanishing quadratic over F_3^%d:" % n,
          "none exists" if found is None else
          "coefficients " + str([c.coeffs for c in found]))
    if found is None:
        continue
    base_ctx = pb.get_field(3, n)
    base = pb.TraceForm(base_ctx, [(base_ctx.one(), 2)]).truth_table()
    g, verdict = pb.add_quadratic(base, found)
    print("   Tr(x^2) + q:", verdict)

# the verdict is g's spectrum, which the paper's criterion W_{D_c f}(-L(c)) = 0
# for every c != 0 matches: a never-vanishing q can still cancel the base
# function outright, and g is not bent there
f1 = pb.PFunction(F3, [0, 1, 1])
g, verdict = pb.add_quadratic(f1, [F3.scalar(2)])
print("\nx^2 + 2x^2:", verdict, "(not bent, sum is the zero function)")
