"""
Socles across the verification matrix
=====================================

For each small group and coefficient characteristic in the standard test
matrix, locate the unique simple submodule of the Steinberg module by
spinning the image of the unipotent-sum operator, and confirm the rule:
the socle is the trivial module exactly when q = -1 mod l.
"""

from steinberg.bngroup import build_gl
from steinberg.meataxe import composition_factors, multiplicity_of
from steinberg.modrep import socle_of_steinberg, steinberg_module

MATRIX = [
    (2, 2, 3), (2, 2, 5),
    (2, 3, 2),
    (2, 4, 3), (2, 4, 5),
    (3, 2, 3), (3, 2, 7),
    (3, 3, 2), (3, 3, 13),
]

print(f"{'group':>9} {'l':>3} {'St dim':>7} {'factors':>12} "
      f"{'socle':>6} {'trivial?':>9} {'q=-1 mod l':>11}")
for n, q, ell in MATRIX:
    G = build_gl(n, q)
    st = steinberg_module(G, ell)
    factors = composition_factors(st.module)
    sd = socle_of_steinberg(G, st, factors)
    dims = "+".join(str(f.dim) for f in factors)
    is_triv = sd.module.dim == 1 and all(
        int(m[0, 0]) == 1 for m in sd.module.mats)
    rule = (q + 1) % ell == 0
    mult = multiplicity_of(sd.module, factors)
    assert mult == 1 and is_triv == rule
    print(f"{'GL%d(%d)' % (n, q):>9} {ell:>3} {st.module.dim:>7} {dims:>12} "
          f"{sd.module.dim:>6} {str(is_triv):>9} {str(rule):>11}")

print()
print("every socle occurred exactly once among the composition factors,")
print("and was trivial precisely in the q = -1 mod l columns above")
