"""Matroid pipeline: volume polynomial, characteristic polynomial two ways,
and log-concavity of the reduced coefficients.

The lattice of flats carries a canonical degree-(rank-1) polynomial with
unit facet derivatives over the order complex (one variable per proper
flat).  Its values at the two canonical direction vectors are 1/d! and
|mu|/d!, and the bivariate expansion along those directions recovers the
reduced characteristic polynomial coefficient by coefficient.

Run:  python demos/02_matroid_log_concavity.py
"""

from lorentzlab import hereditary
from lorentzlab.matroid import (
    Matroid,
    char_poly,
    eval_alpha,
    eval_beta,
    flats,
    hrw_check,
    pol_matroid,
    volume_engine,
)


def label(F):
    return "{" + ",".join(map(str, sorted(F))) + "}"


for name, M in [
    ("U(2,3)", Matroid.uniform(2, 3)),
    ("graphic K4", Matroid.from_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])),
    ("Fano", Matroid.fano()),
    ("U(4,6)", Matroid.uniform(4, 6)),
]:
    L = flats(M)
    rep = char_poly(L)
    hr = hrw_check(L)
    print(f"{name}: rank {L.rank_total}, {len(L.flats)} flats")
    print("  chi coefficients (ascending):", [str(c) for c in rep.chi])
    print("  reduced:", [str(c) for c in rep.reduced], "| routes agree:", rep.agree)
    print("  |reduced| log-concave:", hr.log_concave, "| expansion identity:", hr.mixed_identity)
    print("  pol(alpha) =", eval_alpha(L), " pol(beta) =", eval_beta(L))

# The volume polynomial itself, explicitly, for a small case:
L = flats(Matroid.uniform(3, 4))
h = pol_matroid(L)
print("\npol for U(3,4):", h.f.to_text(label))
print("strongly hereditary:", h.strong)

# Certification: connectivity of chain links plus one-positive-eigenvalue
# Hessians at codimension-2 chains, after a cone witness (here the all-ones
# point lies in the cone).
verdict = hereditary.is_hereditary_lorentzian(h)
print("hereditary Lorentzian:", verdict.value)
print("inertia certificates:", [(sorted(map(label, S)), tuple(i)) for S, i in verdict.q_certificates])

# The same certification runs without materializing the polynomial, once
# per interval of the lattice rather than once per chain, which is what
# makes rank-7 uniform matroids tractable:
v = volume_engine(flats(Matroid.uniform(7, 7))).hl_check()
print(f"\nU(7,7): verdict {v.value}, {v.note}, "
      f"{len(v.q_certificates)} codimension-2 certificates (one per rank-3 interval)")
