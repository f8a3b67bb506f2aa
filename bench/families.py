"""Seedless generators of G-simplicial sets for the benchmark.

Every generator goes through the package's validating constructors
(face identities, group law, simpliciality of the action, twisting
identities, functoriality of the local system), so a generator bug
fails loudly at set-up instead of skewing a timing.

Cell names:
  n-gon            vertices v0..v{n-1}, edges e_i: v_i -> v_{i+1}
  dihedral 2n-gon  vertices a_i, b_i; edges p_i: a_i -> b_i and
                   q_i: a_{i+1} -> b_i.  Placing a_i at position 2i and
                   b_i at 2i+1 of Z/2n, a group element acting as
                   i -> eps*i + c on Z/n moves position x to
                   eps*x + 2c, which keeps parity and therefore the
                   a -> b orientation of every edge.
"""

from __future__ import annotations

from eqtwist.abgroups import AbHom, FgAbGroup
from eqtwist.bredon import GroupTwistProvider
from eqtwist.coefficients import CoefficientSystem, LocalSystem
from eqtwist.equivariant import GSimplicialSet
from eqtwist.groups import FiniteGroup, OrbitCategory
from eqtwist.intmat import IntMatrix
from eqtwist.simplicial import (FiniteSimplicialSet, PairedComplex,
                                SimplexRef, nondeg)
from eqtwist.twisting import GroupTwist

# coefficient groups by name, as the modulus of their one relation
COEFFS = {"Z": 0, "Z2": 2, "Z4": 4}


def coeff_group(name: str) -> FgAbGroup:
    return FgAbGroup.from_relations(1, [[COEFFS[name]]])


def coeff_json(name: str) -> dict:
    return {"constant": {"gens": 1, "rels": [[COEFFS[name]]]}}


def two_torsion(name: str) -> tuple[int, tuple[int, ...]]:
    """Normal form of M[2], the 2-torsion of M."""
    return (0, (2,)) if COEFFS[name] in (2, 4) else (0, ())


def power(name: str, k: int) -> tuple[int, tuple[int, ...]]:
    """Normal form of M^k."""
    m = COEFFS[name]
    return (k, ()) if m == 0 else (0, (m,) * k)


# groups -------------------------------------------------------------

def dihedral_group(n: int) -> tuple[FiniteGroup, dict[str, tuple[int, int]]]:
    """D_n as the maps i -> eps*i + c of Z/n, with that affine form of
    each element.  Rotations are r<c>, mirrors m<c>."""
    elems = [(1, c) for c in range(n)] + [(-1, c) for c in range(n)]
    names = (["e"] + [f"r{c}" for c in range(1, n)]
             + [f"m{c}" for c in range(n)])

    def comp(f, g):  # f after g
        return (f[0] * g[0], (f[0] * g[1] + f[1]) % n)

    table = [[elems.index(comp(f, g)) for g in elems] for f in elems]
    return FiniteGroup(names, table), dict(zip(names, elems))


def s3_affine() -> tuple[FiniteGroup, dict[str, tuple[int, int]]]:
    """The library's S_3, each permutation p of {0,1,2} written as the
    affine map i -> eps*i + c of Z/3 it equals."""
    g = FiniteGroup.symmetric3()
    perms = {"e": (0, 1, 2), "r": (1, 2, 0), "r2": (2, 0, 1),
             "s": (1, 0, 2), "sr": (0, 2, 1), "sr2": (2, 1, 0)}
    aff = {}
    for name, p in perms.items():
        c = p[0]
        eps = 1 if (p[1] - c) % 3 == 1 else -1
        assert all(p[i] == (eps * i + c) % 3 for i in range(3))
        aff[name] = (eps, c)
    for a in g.names:
        for b in g.names:
            ea, ca = aff[a]
            eb, cb = aff[b]
            if aff[g.mul(a, b)] != (ea * eb, (ea * cb + ca) % 3):
                raise ValueError("S_3 table disagrees with composition")
    return g, aff


# polygons -----------------------------------------------------------

def ngon_space(n: int, truncation: int = 1) -> FiniteSimplicialSet:
    cells = {0: [f"v{i}" for i in range(n)], 1: [f"e{i}" for i in range(n)]}
    faces = {f"e{i}": (nondeg(f"v{(i + 1) % n}"), nondeg(f"v{i}"))
             for i in range(n)}
    return FiniteSimplicialSet(truncation, cells, faces)


def ngon(n: int, truncation: int = 1) -> GSimplicialSet:
    """The n-gon with the trivial group acting."""
    return GSimplicialSet(ngon_space(n, truncation), FiniteGroup.trivial(), {})


def rotation_ngon(n: int, truncation: int = 1) -> GSimplicialSet:
    """The n-gon with C_n rotating it freely; its orbit space is a circle."""
    g = FiniteGroup.cyclic(n)
    gen = g.names[1]
    perm = {}
    for i in range(n):
        perm[f"v{i}"] = f"v{(i + 1) % n}"
        perm[f"e{i}"] = f"e{(i + 1) % n}"
    return GSimplicialSet(ngon_space(n, truncation), g, {gen: perm})


def dihedral_space(n: int, truncation: int = 1) -> FiniteSimplicialSet:
    cells = {0: [f"a{i}" for i in range(n)] + [f"b{i}" for i in range(n)],
             1: [f"p{i}" for i in range(n)] + [f"q{i}" for i in range(n)]}
    faces = {}
    for i in range(n):
        faces[f"p{i}"] = (nondeg(f"b{i}"), nondeg(f"a{i}"))
        faces[f"q{i}"] = (nondeg(f"b{i}"), nondeg(f"a{(i + 1) % n}"))
    return FiniteSimplicialSet(truncation, cells, faces)


def _position_cell(x: int, dim: int, n: int) -> str:
    x %= 2 * n
    if dim == 0:
        return f"a{x // 2}" if x % 2 == 0 else f"b{x // 2}"
    # the edge joining positions x and x+1
    return f"p{x // 2}" if x % 2 == 0 else f"q{x // 2}"


def dihedral_polygon(n: int, group: FiniteGroup,
                     affine: dict[str, tuple[int, int]],
                     truncation: int = 1) -> GSimplicialSet:
    """The 2n-gon with a dihedral-type group acting through `affine`;
    its orbit space is an interval."""
    perms = {}
    for name, (eps, c) in affine.items():
        perm = {}
        for x in range(2 * n):
            perm[_position_cell(x, 0, n)] = _position_cell(eps * x + 2 * c,
                                                           0, n)
            # the edge {x, x+1} goes to {g(x), g(x+1)}, named by its lower end
            lo = eps * x + 2 * c if eps == 1 else eps * (x + 1) + 2 * c
            perm[_position_cell(x, 1, n)] = _position_cell(lo, 1, n)
        perms[name] = perm
    return GSimplicialSet(dihedral_space(n, truncation), group, perms)


def dn_polygon(n: int, truncation: int = 1) -> GSimplicialSet:
    g, aff = dihedral_group(n)
    return dihedral_polygon(n, g, aff, truncation)


def s3_polygon(truncation: int = 1) -> GSimplicialSet:
    g, aff = s3_affine()
    return dihedral_polygon(3, g, aff, truncation)


# products -----------------------------------------------------------

def product_with_action(left: GSimplicialSet, right: FiniteSimplicialSet,
                        truncation: int) -> GSimplicialSet:
    """left x right with the group acting on the left factor, built the
    way cartan.cylinder_with_action builds the cylinder."""
    pc = PairedComplex(left.space, right, truncation)
    pc.complex.validate()
    perms = {}
    for gname, table in left.perms.items():
        out = {}
        for cid, (rx, ry) in pc.pair_of.items():
            gref = SimplexRef(rx.word, table[rx.base])
            out[cid] = pc.ref_of_pair(gref, ry).base
        perms[gname] = out
    return GSimplicialSet(pc.complex, left.group, perms)


# the sign-twisted n-gon ---------------------------------------------

def sign_twist_values(n: int, gen: str, ident: str) -> dict[str, str]:
    """C_2-valued twisting function: edge e0 carries the generator."""
    return {f"e{i}": gen if i == 0 else ident for i in range(n)}


def sign_twisted_ngon(n: int, coeff: str, truncation: int):
    """The n-gon over the trivial group whose edge e0 carries the
    generator of C_2, acting on M by -1.  Returns (gx, cat, system,
    provider); H^0 = M[2] and H^1 = M/2M."""
    gx = ngon(n, truncation)
    cat = OrbitCategory(gx.group)
    system = constant_system(cat, coeff)
    m = system.values[cat.subgroups[0].key]
    pi = FiniteGroup.cyclic(2)
    twist = GroupTwist(gx.space, pi,
                       sign_twist_values(n, pi.names[1], pi.identity))
    phi = {}
    for s in cat.subgroups:
        phi[(s.key, pi.identity)] = AbHom.identity(m)
        phi[(s.key, pi.names[1])] = AbHom(m, m, IntMatrix([[-1]]))
    local = LocalSystem(system, pi, phi)
    return gx, cat, system, GroupTwistProvider(local, twist, gx=gx)


def constant_system(cat: OrbitCategory, coeff: str) -> CoefficientSystem:
    """Constant coefficients, checked for functoriality."""
    m = coeff_group(coeff)
    return CoefficientSystem(
        cat, {s.key: m for s in cat.subgroups},
        {f.key: AbHom.identity(m) for f in cat.all_morphisms()})
