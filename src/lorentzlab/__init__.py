"""Exact certification of Lorentzian and hereditary-Lorentzian polynomials
on convex cones, with matroid, polytope and simplicial-fan pipelines.

Everything is exact rational arithmetic: verdicts are sign and inertia
decisions, never numerical estimates.  See the README for a tour and the
demos/ directory for narrative walkthroughs of each pipeline.
"""

from .rat import Q, rat_str
from .polycore import Direction, HomPoly, LinSubspace, parse_poly
from .simplicial import SimComplex
from .inertia import Inertia, SymMatrix, hessian, inertia
from .cones import ConeByGenerators, solve_in_span, strict_feasible
from .hereditary import (
    BalancingError,
    HereditaryPoly,
    HLVerdict,
    NotHereditaryError,
    check_hereditary,
    cone_member,
    cone_nonempty,
    from_weights,
    is_hereditary_lorentzian,
    is_positive,
)
from .subdivision import SubdivStep, apply_chain, subdivide, weld
from .lorentzian import (
    LorentzVerdict,
    MSet,
    definitional_check,
    is_k_lorentzian,
    is_lorentzian,
    is_m_convex,
    log_concave_seq,
    polarize,
)
from .matroid import FlatLattice, Matroid, bergman_fan, char_poly, flats, hrw_check, pol_matroid
from .polytope import SimplePolytope, af_check, build, mixed_volume, volume, volume_polynomial
from .fanchow import DegreeFunctional, Fan, ample_cone_member, build_fan, canonical_bijection_check, check_fan_lorentzian, fan_subdivide

__version__ = "0.1.0"
