"""Bredon cochains of a finite group action, with twisted coboundaries.

The degree-n cochain group is the direct sum, over orbit representatives
of nondegenerate n-cells, of the coefficient value at the orbit type
G/G_sigma.  A cochain is evaluated at an arbitrary cell x = g.sigma
through the coefficient map of the orbit morphism determined by g, and
vanishes on degenerate simplices.

The coboundary is the alternating face sum; in the twisted variant the
d_0 term is corrected by an automorphism of the coefficient value that
depends on the simplex.  Two sources for that correction are provided:
a group-valued twisting function pushed through a compatible action on
the coefficients, and edge-path transport where the correction is the
holonomy of the loop spanned by the leading edge.  No twist is spelled
as a provider of None, and so is a group twist with no action on the
coefficients: `fixtures.load_setup` reads a group twist file with no
action file as the untwisted complex.  Squaring to zero is re-checked
on the assembled integer matrices, so a bad twist cannot slip through
silently.

The untwisted path (`coboundary`, `untwisted_complex`) passes a
provider of None, so its coboundary is assembled from the coefficient
maps' own matrices: each face block costs its entries, with no hom
composed and no matrix product run per face.  The faces themselves are
resolved once per complex, by `GSimplicialSet.orbit_faces`, to the
orbit and transporter of each face of each orbit representative; a
coboundary then only looks up the orbit morphism of each face and its
block, so every set of cochains on one complex shares that work.
"""

from __future__ import annotations

from .abgroups import AbHom, CochainComplex, assemble_hom, direct_sum
from .coefficients import CoefficientSystem, LocalSystem
from .edgepaths import EdgeActionSystem, PathChoice, loop_of_simplex
from .equivariant import GSimplicialSet, OGComplex
from .groups import OrbitCategory
from .simplicial import SimplexRef, nondeg
from .twisting import GroupTwist


class EquivariantCochains:
    """Cochain groups of a G-complex valued in a coefficient system.

    nmax is the top degree carried; coboundaries out of degree nmax are
    not formed, so nmax should exceed the top dimension with cells
    whenever the top cohomology is wanted exactly.
    """

    def __init__(self, gx: GSimplicialSet, cat: OrbitCategory,
                 system: CoefficientSystem, nmax: int):
        if nmax > gx.space.truncation:
            raise ValueError("nmax exceeds the truncation of the complex")
        self.gx = gx
        self.cat = cat
        self.system = system
        self.nmax = nmax
        self.orbits = {n: gx.orbits(n) for n in range(nmax + 1)}
        self.groups = {n: direct_sum([system.values[o.stab_key]
                                      for o in self.orbits[n]])
                       for n in range(nmax + 1)}


# twist providers ----------------------------------------------------

class GroupTwistProvider:
    """Correction by phi(tau(x))^{-1} for a group-valued twisting function
    and an action phi of the group on the coefficients."""

    def __init__(self, local: LocalSystem, twist: GroupTwist,
                 gx: GSimplicialSet | None = None):
        self.local = local
        self.twist = twist
        if gx is not None:
            twist.check_equivariant(gx)

    def phi_hom(self, skey: str, xref: SimplexRef) -> AbHom:
        return self.local.act(skey, self.twist.value(xref))

    def phi_inv_hom(self, skey: str, xref: SimplexRef) -> AbHom:
        return self.local.act_inv(skey, self.twist.value(xref))


class EdgePathProvider:
    """Correction by the inverse holonomy of the loop carried by the
    leading edge, with loops read off inside each fixed complex."""

    def __init__(self, ph: OGComplex, choice: PathChoice,
                 actions: EdgeActionSystem):
        self.ph = ph
        self.choice = choice
        self.actions = actions

    def phi_hom(self, skey: str, xref: SimplexRef) -> AbHom:
        fc = self.ph.complexes[skey]
        w = loop_of_simplex(fc, self.choice, skey, xref)
        return self.actions.act(skey, w)

    def phi_inv_hom(self, skey: str, xref: SimplexRef) -> AbHom:
        fc = self.ph.complexes[skey]
        w = loop_of_simplex(fc, self.choice, skey, xref)
        return self.actions.act(skey, w.inverse())


# coboundaries -------------------------------------------------------

def twisted_coboundary(ec: EquivariantCochains, provider, n: int) -> AbHom:
    """delta^n with the d_0 term corrected by the provider.  A provider
    of None means the d_0 face enters as is: every block is then the
    coefficient map's own matrix, negated once per morphism for the odd
    faces, and no hom is composed."""
    maps = ec.system.maps
    cat = ec.cat
    lower = [cat.by_key[o.stab_key] for o in ec.orbits[n]]
    # the odd faces' blocks, -1 times the map of each morphism key
    negated = {}
    blocks = []
    for xi, (ox, faces) in enumerate(zip(ec.orbits[n + 1],
                                         ec.gx.orbit_faces(n + 1))):
        hkey = ox.stab_key
        h = cat.by_key[hkey]
        for i, j, g in faces:
            # the orbit morphism whose coefficient map evaluates a
            # cochain at the face
            key = cat.coset_morphism(h, lower[j], g).key
            if i % 2:
                block = negated.get(key)
                if block is None:
                    block = negated[key] = -maps[key].matrix
            elif i == 0 and provider is not None:
                block = provider.phi_inv_hom(hkey, nondeg(ox.rep)).compose(
                    maps[key]).matrix
            else:
                block = maps[key].matrix
            blocks.append(((xi, j), block))
    return assemble_hom(ec.groups[n], ec.groups[n + 1], blocks)


def twisted_complex(ec: EquivariantCochains, provider) -> CochainComplex:
    diffs = [twisted_coboundary(ec, provider, n) for n in range(ec.nmax)]
    return CochainComplex([ec.groups[n] for n in range(ec.nmax + 1)], diffs)


def coboundary(ec: EquivariantCochains, n: int) -> AbHom:
    """The untwisted delta^n."""
    return twisted_coboundary(ec, None, n)


def untwisted_complex(ec: EquivariantCochains) -> CochainComplex:
    return twisted_complex(ec, None)
