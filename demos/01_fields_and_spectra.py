"""Tour 1: fields, cyclotomic integers, Walsh spectra, classification.

Run:  python demos/01_fields_and_spectra.py
"""

import pbent as pb

# ---------------------------------------------------------------------------
# Finite fields come with verified moduli and primitive elements
# ---------------------------------------------------------------------------
F9 = pb.get_field(3, 2)
print("field:", F9.spec_string())
g = F9.primitive
print("primitive g, g^8 =", (g ** 8).coeffs, "(the identity)")
print("trace of g:", F9.trace(g))

# x^4 + x - 1 realizes F_81 with a primitive root a satisfying a^4 = 1 - a
F81 = pb.get_field(3, 4, (2, 1, 0, 0, 1))
a = F81.primitive
print("a^4 == 1 - a:", a ** 4 == F81.one() - a)

# ---------------------------------------------------------------------------
# Walsh values are exact elements of Z[w]
# ---------------------------------------------------------------------------
f = pb.PFunction(pb.get_field(3, 1), [0, 1, 1])   # f(x) = x^2 on F_3
print("\nW of x^2 on F_3:", [str(pb.single_walsh_value(f, y)) for y in range(3)])
print("gauss_sum(3) =", pb.CycInt(3, pb.gauss_sum(3)), " norm:", pb.CycInt(3, pb.gauss_sum(3)).norm_sq())

# the fast transform agrees coordinate-for-coordinate with the naive sum
F27 = pb.get_field(3, 3)
sporadic = pb.parse_function_spec("p=3 n=3 f=Tr(x^8+x^14)")[1].truth_table()
assert pb.walsh_fast(sporadic).coords == pb.walsh_naive(sporadic).coords
print("\nfast == naive on Tr(x^8 + x^14) over F_27")

# ---------------------------------------------------------------------------
# Bentness and the regularity ladder
# ---------------------------------------------------------------------------
for spec in ("p=3 n=2 f=Tr(x^2)",      # regular
             "p=3 n=4 f=Tr(x^2)",      # weakly regular, sign -1
             "p=3 n=4 f=Tr(x^34+x^2)", # weakly regular binomial
             "p=3 n=3 f=Tr(x^8+x^14)", # non-weakly regular, dual-bent
             "p=3 n=2 f=Tr(x)"):       # not bent
    ctx, tf = pb.parse_function_spec(spec)
    cls = pb.classify(tf.truth_table())
    print("%-26s -> %s" % (spec.split("f=")[1], cls))

# three equivalent bentness criteria
h = pb.parse_function_spec("p=3 n=2 f=Tr(x^2)")[1].truth_table()
print("\nspectral:", pb.is_bent(pb.walsh_fast(h)),
      "| all derivatives balanced:", pb.bent_via_derivatives(h),
      "| second-derivative sum:", pb.bent_via_second_derivative_sum(h))

# the dual walks a four-step cycle for weakly regular functions
print("dual iteration:", pb.dual_iteration_check(h))
