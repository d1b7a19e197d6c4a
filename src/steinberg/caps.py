"""Every size limit of the package, in one table.

`verify` and `hecke-check` refuse a group with more flags than the dense
limit before any work starts.  Three orderings, pinned by tests, make that
one check complete: the dense limit is at most MAX_UNIPOTENT (|U| is at
most the flag count) and MAX_FLAG_COUNT, and at least MAX_REGULAR_ORDER.
"""

# order of a coefficient or defining field GF(p^k)
MAX_FIELD_SIZE = 1 << 20
# largest side of a matrix that exact elimination accepts; also the largest
# flag count verify and hecke-check admit, the largest hom-space solve and
# the widest factor-isomorphism spin
MAX_DENSE_DIM = 2048
# largest flag count |G/B| for which GL_n(q) is constructed at all
MAX_FLAG_COUNT = 5000
# largest unipotent subgroup enumerated element by element
MAX_UNIPOTENT = 4096
# largest group order enumerated for the regular module (Gelfand-Graev)
MAX_REGULAR_ORDER = 512
# largest Coxeter group enumerated
MAX_GROUP_ORDER = 1_000_000
# seeded algebra elements per Norton test, certificate or isomorphism search
MAX_NORTON_TRIES = 40
