"""Exact twisted Bredon cohomology of finite G-simplicial sets.

Coefficients live in systems over the orbit category, twists enter as
group valued twisting functions or edge path data, and every
computation runs in exact integer arithmetic over presented abelian
groups.
"""

from .abgroups import AbHom, CochainComplex, FgAbGroup, cohomology_at
from .bredon import (EdgePathProvider, EquivariantCochains,
                     GroupTwistProvider, coboundary, twisted_coboundary,
                     twisted_complex, untwisted_complex)
from .cartan import (CartanTheory, LiftSystem, canonical_theory,
                     check_axioms, crosscheck_theorem, kernel_term,
                     theory_cohomology, vertical_homotopy)
from .coefficients import CoefficientSystem, LocalSystem
from .equivariant import GSimplicialSet, OGComplex, fixed_point_system
from .groups import FiniteGroup, OrbitCategory, Subgroup
from .simplicial import (FiniteSimplicialSet, PairedComplex, SimplexRef,
                         SimplicialMap, nondeg, standard_simplex)
from .twisting import GroupTwist, classifying_map

__version__ = "0.1.0"
