"""Tour 2: the cubic trinomial family over F_3^(4k).

Every member Tr_n(x^(3^k+2) - x^(2*3^k+1) + b x^(3^j+1)) with n = 4k,
b = zeta^(t(3^k+1)/2), j of the right parity and t odd is a cubic bent
function whose Walsh signs take both values, so it is not weakly regular.

Run:  python demos/02_trinomial_family.py
"""

import pbent as pb

params = pb.TrinomialParams(k=1, j=2, t=1)
ctx = params.context()
tf = pb.trinomial_bent(params, ctx)
f = tf.truth_table()
print("field:", ctx.spec_string())
print("function:", tf.spec_string())
print("algebraic degree:", f.algebraic_degree())

# ---------------------------------------------------------------------------
# Route 1: the spectrum
# ---------------------------------------------------------------------------
spectrum = pb.walsh_fast(f)
cert = pb.extract_certificate(spectrum)
print("\nbent:", pb.is_bent(spectrum))
print("sign histogram:", cert.sign_histogram(), "-> both signs, not weakly regular")
print("classification:", pb.classify(f))
print("dual degree:", cert.dual.algebraic_degree(), "(the function itself is cubic)")

# ---------------------------------------------------------------------------
# Route 2: second-order derivatives
# ---------------------------------------------------------------------------
like = pb.cubic_like_certificate(f)
print("\nevery nonzero direction has a constant nonzero second derivative:",
      like.complete)
a_idx = next(a for a, lam in enumerate(like.lam) if lam)  # lam[a] = 0: no witness
b_idx, const = like.b[a_idx], like.lam[a_idx]
print("e.g. direction %d with witness %d gives constant %d" % (a_idx, b_idx, const))

# witness directions can be produced structurally instead of searched
c = ctx.scalar(1)
d = pb.lemma2_witness(c, params)
dd = f.second_derivative(c, d)
print("lemma witness for c=1: d index %d, second derivative constant %d"
      % (d.index, dd.values[0]))

# weak regularity implies the dual phase identity, so each of its violations
# certifies non-weak-regularity
rep = pb.wr_identity_check(f)
print("sound (dual phase identity) violations:", len(rep.violations))

# ---------------------------------------------------------------------------
# Closed-form Walsh values for k odd, j in {0, 2k}, t = (3^k-1)/2
# ---------------------------------------------------------------------------
spec = pb.walsh_naive(f).coords
mismatches = 0
for idx in range(ctx.q):
    y = ctx.from_index(idx)
    if pb.trinomial_closed_form_walsh(params, y).coords != spec[ctx.neg_table[idx]]:
        mismatches += 1
print("\nclosed form vs spectrum: %d mismatches out of %d" % (mismatches, ctx.q))

# the k = 2 member lives on F_3^8 and classifies in well under a second
big = pb.TrinomialParams(k=2, j=1, t=1)
fb = pb.trinomial_bent(big).truth_table()
print("\nk=2 (n=8):", pb.classify(fb), "degree", fb.algebraic_degree())
