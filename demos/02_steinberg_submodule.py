"""
The alternating Weyl sum and its spun submodule
===============================================

Inside the permutation module on Borel cosets, the vector that alternates
over the Weyl-chamber cosets is a common eigenvector of every double-coset
operator.  The submodule it generates under the group action has one
apartment row per flag of the big cell, so its dimension is the unipotent
subgroup order.
"""

import numpy as np

from steinberg.bngroup import build_gl
from steinberg.hecke import (alternating_sum_vector, borel_matrices_int,
                             sign_eigenspace)
from steinberg.modrep import steinberg_module

G = build_gl(2, 3)
ell = 2
print("group:", G, " coefficient characteristic:", ell)
print()

# the alternating sum: +1 or -1 on one coset per Weyl element, 0 elsewhere
e = alternating_sum_vector(G)
print("alternating vector over the", G.index, "flags:", e)
print()

# each double-coset operator scales it by the sign of its Weyl element
print("operator eigenvalues on the vector (integer matrices):")
for w, m in enumerate(borel_matrices_int(G)):
    length = G.weyl.length(w)
    sign = -1 if length % 2 else 1
    ok = np.array_equal(m @ e, sign * e)
    print("  w =", w, " length", length, " eigenvalue", sign, " verified:", ok)
print()

# the submodule it generates, built from its apartment rows u.e, one per
# flag of the big cell, with no spin
st = steinberg_module(G, ell)
print("spun submodule dimension:", st.module.dim, " (|U| =", G.order_u, ")")
print("canonical basis rows over GF(%d):" % ell)
print(st.basis)
print()

# the same subspace, found a second way: the common (-1)-eigenspace of the
# simple-reflection operators
eig = sign_eigenspace(G, ell)
print("common (-1)-eigenspace of the simple operators equals the spun")
print("submodule, basis for basis:", np.array_equal(eig, st.basis))
