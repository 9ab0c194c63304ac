"""Fans: degree functionals, stellar subdivision transport, and the
support-invariance of the certification.

A simplicial fan's top-degree functionals are carried by polynomials
supported on the cone complex and invariant under the ray lineality space.
Stellar subdivision moves them by an explicit linear operator; the
volume-weighted facet values (squared, to stay rational) are invariant
across any chain of subdivisions and welds.

Run:  python demos/04_fans_and_subdivisions.py
"""

from lorentzlab.fanchow import (
    FanStep,
    ample_cone_member,
    build_fan,
    canonical_bijection_check,
    check_fan_lorentzian,
    fan_subdivide,
    functional_from_weights,
    transport_chain,
)
from lorentzlab.matroid import Matroid, bergman_fan, flats

# the normal fan of the axis square
fan = build_fan(
    2, ("e", "n", "w", "s"),
    [(1, 0), (0, 1), (-1, 0), (0, -1)],
    [{"e", "n"}, {"n", "w"}, {"w", "s"}, {"s", "e"}],
)
fan.verify_fan_axioms()
alpha = functional_from_weights(fan, {F: 1 for F in fan.cones.facets})
print("square fan functional:", alpha.h.f.to_text())
print("certifies:", check_fan_lorentzian(alpha).value)
print("support numbers (1,1,1,1) ample:", ample_cone_member(fan, (1, 1, 1, 1)))

# subdivide at an interior ray; the transported functional still certifies,
# and the volume-weighted facet values match on overlapping cones
fan2, transport = fan_subdivide(fan, (1, 2))
alpha2 = transport(alpha)
print("\nafter subdividing at (1,2):", len(fan2.cones.facets), "maximal cones")
print("transported functional certifies:", check_fan_lorentzian(alpha2).value)
print("canonical bijection invariant:", canonical_bijection_check(fan, alpha, fan2, alpha2))

# a subdivide/weld chain is the identity on the functional
steps = [
    FanStep("subdivide", ray=(1, 1), vertex="m"),
    FanStep("weld", face=("e", "n"), vertex="m"),
]
fan3, alpha3 = transport_chain(fan, alpha, steps)
print("chain round trip restores the functional:", alpha3.h.f == alpha.h.f)

# Bergman fans of matroids certify with unit weights
for r, n in ((2, 3), (3, 4)):
    L = flats(Matroid.uniform(r, n))
    bf = bergman_fan(L)
    beta = functional_from_weights(bf, {F: 1 for F in bf.cones.facets})
    print(f"Bergman fan of U({r},{n}): {len(bf.ray_labels)} rays,",
          "certifies:", check_fan_lorentzian(beta).value)

# a perfectly valid positive 2-dimensional fan that fails: two complete
# plane fans in orthogonal coordinate planes of R^4 (disconnected complex)
rays = {"a+": (1, 0, 0, 0), "b+": (0, 1, 0, 0), "a-": (-1, 0, 0, 0), "b-": (0, -1, 0, 0),
        "c+": (0, 0, 1, 0), "d+": (0, 0, 0, 1), "c-": (0, 0, -1, 0), "d-": (0, 0, 0, -1)}
cones = [{"a+", "b+"}, {"b+", "a-"}, {"a-", "b-"}, {"b-", "a+"},
         {"c+", "d+"}, {"d+", "c-"}, {"c-", "d-"}, {"d-", "c+"}]
labels = tuple(rays)
disc = build_fan(4, labels, [rays[k] for k in labels], cones)
disc.verify_fan_axioms()
gamma = functional_from_weights(disc, {F: 1 for F in disc.cones.facets})
v = check_fan_lorentzian(gamma)
print("\ndisconnected two-plane fan:", v.value, "| witness face:", sorted(v.c_witness or ()))
