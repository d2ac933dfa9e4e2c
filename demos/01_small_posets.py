"""Tour of the small non-crossing partition posets.

Enumerates NC for a few ambients, prints rank vectors, type censuses and
characteristic polynomials, and checks the zeta polynomial against direct
multichain counting.
"""

from noncross import (characteristic_polynomial, enumerate_nc, label,
                      zeta_closed, zeta_direct)

for name in ("A2", "A3", "D4", "D5", "E6"):
    poset = enumerate_nc(name)
    print("NC(%s): %d elements, rank sizes %s"
          % (name, len(poset), poset.rank_sizes()))
    census = sorted((str(t), count)
                    for t, count in poset.type_counts().items())
    print("  types:", ", ".join("%s:%d" % tc for tc in census))
    print("  chi* =", characteristic_polynomial(label(name)))
    closed = zeta_closed(label(name))
    for z in (2, 3):
        assert zeta_direct(poset, z) == closed.evaluate(z=z)
    print("  zeta =", closed, " (verified at z=2,3)")
    print()
