"""
The Iwahori-Hecke algebra and its characters
============================================

Multiply standard basis elements of the deformed Weyl-group algebra,
evaluate its two one-dimensional characters, and watch the
parameter-inverting involution exchange them over a finite field.
"""

from steinberg.bngroup import build_gl
from steinberg.gf import field
from steinberg.hecke import hecke_for_group

G = build_gl(3, 2)
H = hecke_for_group(G)  # integer coefficients, both parameters equal to q
W = G.weyl
print("Weyl group order:", W.order, " rank:", W.rank, " parameter q =", G.q)
print("quadratic relation holds:", H.check_quadratic())
print("braid relation holds:   ", H.check_braid())
print()

# multiply two generators and read off the support
t0, t1 = H.generator(0), H.generator(1)
print("T_0 * T_0 =", H.multiply(t0, t0))
print("T_0 * T_1 =", H.multiply(t0, t1))
print()

# the sign character sends each T_w to (-1)^length, the index character to
# q^length; both are multiplicative on products
x = H.multiply(t0, t1)
y = H.basis(W.order - 1)
xy = H.multiply(x, y)
print("eps(x) * eps(y) =", H.char_eps(x) * H.char_eps(y),
      " eps(x*y) =", H.char_eps(xy))
print("ind(x) * ind(y) =", H.char_ind(x) * H.char_ind(y),
      " ind(x*y) =", H.char_ind(xy))
print()

# the symmetrizing trace reads the identity coefficient and is symmetric
print("trace(x*y) =", H.trace(xy), " trace(y*x) =", H.trace(H.multiply(y, x)))
print()

# over GF(7) the parameter is invertible, so the involution
#   T_s -> (q-1) T_1 - T_s
# is defined; it swaps the two characters on every basis element
HF = hecke_for_group(G, field(7))
print("over GF(7), eps(gamma(T_w)) against ind(T_w) for every w:")
for w in range(W.order):
    t_w = HF.basis(w)
    swapped = HF.gamma(t_w)
    print("  w =", w, " ind(T_w) =", HF.char_ind(t_w),
          " eps(gamma(T_w)) =", HF.char_eps(swapped),
          " match:", HF.char_ind(t_w) == HF.char_eps(swapped))
