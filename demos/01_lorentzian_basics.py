"""Deciding the Lorentzian property, exactly.

A homogeneous polynomial with nonnegative coefficients is Lorentzian when
its support satisfies the exchange axiom and every (d-2)-fold coordinate
derivative has a Hessian with at most one positive eigenvalue.  Everything
below is exact rational arithmetic; no verdict depends on a tolerance.

Run:  python demos/01_lorentzian_basics.py
"""

from lorentzlab import (
    ConeByGenerators,
    is_k_lorentzian,
    is_lorentzian,
    log_concave_seq,
    parse_poly,
    polarize,
)
from lorentzlab.lorentzian import polarized_hereditary_verdict

e2 = parse_poly("t1 t2 + t1 t3 + t2 t3")
print("f =", e2.to_text())
print("  Lorentzian:", is_lorentzian(e2).value)

sos = parse_poly("t1^2 + t2^2")
v = is_lorentzian(sos)
print("g =", sos.to_text())
print("  Lorentzian:", v.value, "| witness:", v.witness)

# The same decision through a cone given by generators: on the positive
# orthant the extreme-ray test agrees with the direct one.
orthant = ConeByGenerators(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
print("orthant test on f:", is_k_lorentzian(e2, orthant).value)

# A genuinely conic example: the quadratic t1^2 - t2^2 - t3^2 on rational
# points of its forward light cone.
hyp = parse_poly("t1^2 - t2^2 - t3^2")
cone = ConeByGenerators(((1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (5, 3, 4)))
print("light-cone quadratic:", is_k_lorentzian(hyp, cone).value)

# Polarization replaces each variable by a block of fresh copies; the
# hereditary certification of the polarization reproduces the verdict.
f = parse_poly("t1^2 + 3*t1 t2 + t2^2")
print("polarization of", f.to_text(), "has", len(polarize(f).vars), "variables")
print("  hereditary verdict:", polarized_hereditary_verdict(f).value,
      "| direct:", is_lorentzian(f).value)

# Lorentzian polynomials produce log-concave derivative sequences.
seq, ok = log_concave_seq(e2.dir_derivative((1, 1, 1)), (1, 0, 0), (0, 1, 0))
print("derivative sequence:", [str(x) for x in seq], "log-concave:", ok)
