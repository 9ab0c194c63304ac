"""Simple polytopes: exact volume polynomials and the mixed-volume
inequality.

A simple polytope with rational facet normals has a volume polynomial in
its support numbers.  It is the hereditary polynomial of the incidence
complex whose mixed derivative at each vertex F is 1 / |det(normals of F)|,
rebuilt from these weights exactly as matroid and fan volume polynomials
are.  Mixed volumes are its polarized directional derivatives, and the
two-body inequality follows from the certification of the polynomial.

Run:  python demos/03_polytopes_alexandrov_fenchel.py
"""

from lorentzlab import hereditary
from lorentzlab.polytope import af_check, build, mixed_volume, volume, volume_polynomial
from lorentzlab.rat import Q

# a unit square, a rectangle, and a clipped-corner pentagon share normals
square = build([(1, 0), (0, 1), (-1, 0), (0, -1)], [1, 1, 1, 1])
rect = build([(1, 0), (0, 1), (-1, 0), (0, -1)], [2, 3, 0, 0])

pol = volume_polynomial(square)
print("square volume polynomial:", pol.f.to_text())
print("vertices:", square.vertices, "area:", volume(square))

print("mixed volume V(square, rect):", mixed_volume([square, rect]))
print("V(K,K) = 2 Vol(K):", mixed_volume([rect, rect]), "=", 2 * volume(rect))
print("two-body inequality:", af_check([square, rect]))

# 3D: a triangular prism
prism = build([(-1, 0, 0), (0, -1, 0), (1, 1, 0), (0, 0, 1), (0, 0, -1)], [0, 0, 1, 1, 0])
p3 = volume_polynomial(prism)
print("\nprism volume:", volume(prism))
print("volume polynomial at its own support numbers:", p3.f.evaluate(prism.t))

K1 = build(prism.normals, [0, 0, 1, 2, 0])
K2 = build(prism.normals, [0, 0, Q(3, 2), 1, Q(1, 2)])
print("V(K1, K2, prism):", mixed_volume([K1, K2, prism]))
print("Alexandrov-Fenchel for (K1, K2, prism):", af_check([K1, K2, prism]))

# the certification behind the inequality (the all-ones point lies in the
# cone)
verdict = hereditary.is_hereditary_lorentzian(p3)
print("\nprism polynomial certifies:", verdict.value)
for S, inr in verdict.q_certificates:
    print("  face", sorted(S), "inertia", tuple(inr))
