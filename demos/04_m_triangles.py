"""M-triangles, the F=M transform, and reciprocity.

Assembles the symbolic M-triangle of m-divisible non-crossing partitions
for D4 from its decomposition table, compares it with the directly
computed Moebius-function M-triangle, applies the F=M transform, and
verifies the reciprocity identity.
"""

from noncross import (assemble_dual, build_ncm, fm_transform, full_table,
                      mtriangle_direct, reciprocity_check)

mt = assemble_dual("D4", full_table("D4"))
print("dual M-triangle of D4 (symbolic in m):")
print(" ", mt.dual)
print()

for m in (1, 2):
    direct = mtriangle_direct(build_ncm("D4", m))
    assert mt.at(m) == direct
    print("m=%d: assembled primal equals the direct Moebius M-triangle" % m)

print()
for m in (1, 2, 3):
    cand = fm_transform(mt, m)
    assert cand.problems() == []
    faces = sum(cand.coefficients.values())
    print("m=%d: F-triangle valid, %d faces in total" % (m, faces))

print()
assert not reciprocity_check(mt).terms
print("reciprocity identity holds for D4")
