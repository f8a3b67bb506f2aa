"""Shared builders for the test suite.

Complexes come from the bundled fixture files so the tests exercise the
same inputs the command line tool ships with; twisted setups are
assembled here because the tests want them in many coefficient
variations.  The planted negative controls of the axiom checks, the
brute-force vertical homotopy search, the dense Smith normal form, the
determinant, the kernel-presenting cohomology, the homotopy through
Moore subgroups, the orbits found afresh on every call, the
evaluation of a Bredon cochain at a cell, the twist provider that
composes an identity into every d_0 face, the
subset-closure subgroup lattice, the name-level orbit category, the
name-level checks of an action and of its fixed-point system, the
twist checks on every simplex, the
column-reduction map equality, and the block assembly, face lookup by
name and unit-block reduction as they were before their loops were
hoisted live here too:
the tests use them as references, the package does not.  So do the
groups built from generators that the lattice tests need, the covering
spaces that the twisted cohomology tests need, with the trivial
action of a group twist that the package reads as no twist, the twist
whose values are all the identity, the orbit spaces and
polygons with actions that the Bredon oracle needs, the classifying
complexes, with their universal twist, whose group cohomology has
closed forms, the torus twisted along one factor, and a sign twist and
edge-path transport on any complex with an action, for the assembly
reference.  The canonical theory plus an acyclic cone is the second
valid Cartan theory the comparison runs on.
"""

import itertools

from eqtwist.abgroups import (AbHom, FgAbGroup, Subquotient, _drop_cols,
                              _drop_rows, _layout, _modulus, _residues,
                              assemble_hom, cohomology_at, direct_sum)
from eqtwist.bredon import (EdgePathProvider, EquivariantCochains,
                            GroupTwistProvider, twisted_complex,
                            untwisted_complex)
from eqtwist.cartan import (CartanTheory, LiftSystem, OGSimplicialAb,
                            SimplicialAb, canonical_theory,
                            cylinder_with_action, element_preimage,
                            kernel_term, simplicial_ab_of_model)
from eqtwist.classifying import SimplicialFiniteGroup, classifying_complex
from eqtwist.coefficients import CoefficientSystem, LocalSystem
from eqtwist.em import CochainModel, delta_hom
from eqtwist.edgepaths import (EdgeActionSystem, EdgeWord, PathChoice,
                               edge_endpoints)
from eqtwist.equivariant import (CellOrbit, GSimplicialSet,
                                 fixed_point_system)
from eqtwist.fixtures import fixture_path, load_json
from eqtwist.groups import (FiniteGroup, OrbitCategory, OrbitMorphism,
                            all_subgroups)
from eqtwist import intmat
from eqtwist.intmat import IntMatrix, _add_row, _column_index
from eqtwist.simplicial import (FiniteSimplicialSet, PairedComplex,
                                SimplexRef, SimplicialMap, nondeg)
from eqtwist.twisting import GroupTwist, classifying_map

from verification import classifying_twist, product


def load_gx(name: str) -> GSimplicialSet:
    return GSimplicialSet.from_json(load_json(fixture_path(name)))


def circle_gx():
    return load_gx("s1.json")


def refs1_gx():
    return load_gx("refs1.json")


def triangle_gx():
    return load_gx("triangle.json")


def sphere2_gx():
    return load_gx("sphere2.json")


def delta2_gx():
    return load_gx("delta2.json")


def ngon_space(n: int) -> FiniteSimplicialSet:
    """The n-gon: vertices v0..v{n-1}, edge ei from vi to v{i+1}."""
    cells = {0: [f"v{i}" for i in range(n)], 1: [f"e{i}" for i in range(n)]}
    faces = {f"e{i}": (nondeg(f"v{(i + 1) % n}"), nondeg(f"v{i}"))
             for i in range(n)}
    return FiniteSimplicialSet(1, cells, faces)


def torus_gx(a: int, b: int) -> GSimplicialSet:
    """The product of an a-gon and a b-gon, over the trivial group."""
    pc = product(ngon_space(a), ngon_space(b), truncation=3)
    pc.complex.validate()
    return GSimplicialSet(pc.complex, FiniteGroup.trivial(), {})


def bar_complex(pi: FiniteGroup, t: int) -> GSimplicialSet:
    """The classifying complex W-bar of the constant simplicial group pi,
    truncated at t, over the trivial group: its cohomology is the group
    cohomology of pi."""
    wbar = classifying_complex(SimplicialFiniteGroup.constant(pi, t), t)
    return GSimplicialSet(wbar.complex, FiniteGroup.trivial(), {})


def universal_twist(pi: FiniteGroup, t: int) -> GroupTwist:
    """The universal twist on `bar_complex(pi, t)`: each simplex of the
    classifying complex twisted by its top coordinate."""
    sg = SimplicialFiniteGroup.constant(pi, t)
    wbar = classifying_complex(sg, t)
    tau = classifying_twist(sg, wbar)
    return GroupTwist(wbar.complex, pi, {
        cid: tau(nondeg(cid))
        for q in range(1, t + 1) for cid in wbar.complex.cells[q]})


def constant_setup(gx, coeff: FgAbGroup):
    cat = OrbitCategory(gx.group)
    system = CoefficientSystem.constant(cat, coeff)
    return cat, system


def cyclic_local_system(system: CoefficientSystem, pi: FiniteGroup,
                        gen_rows) -> LocalSystem:
    """The generator of a cyclic pi acts by the matrix gen_rows on
    every value; values must have as many generators as gen_rows."""
    phi = {}
    for s in system.cat.subgroups:
        val = system.values[s.key]
        gen = IntMatrix(gen_rows, val.ngens)
        powers = {pi.identity: AbHom.identity(val)}
        cur, mat = pi.names[1], gen
        while cur not in powers:
            powers[cur] = AbHom(val, val, mat)
            cur, mat = pi.mul(cur, pi.names[1]), mat @ gen
        for u, h in powers.items():
            phi[(s.key, u)] = h
    return LocalSystem(system, pi, phi)


def sign_local_system(system: CoefficientSystem, pi: FiniteGroup,
                      gen_sign: int) -> LocalSystem:
    """The generator of a cyclic pi acts by gen_sign on every value;
    values must be cyclic on one generator."""
    return cyclic_local_system(system, pi, [[gen_sign]])


def s1_twisted(coeff: FgAbGroup, order: int = 2, gen_sign: int = -1):
    """The circle whose loop maps to the generator of Z/order, acting
    by gen_sign on the constant coefficients."""
    gx = circle_gx()
    cat, system = constant_setup(gx, coeff)
    pi = FiniteGroup.cyclic(order)
    twist = GroupTwist(gx.space, pi, {"e": pi.names[1]})
    local = sign_local_system(system, pi, gen_sign)
    provider = GroupTwistProvider(local, twist, gx=gx)
    return gx, cat, system, provider


def s1_untwisted(coeff: FgAbGroup):
    gx = circle_gx()
    cat, system = constant_setup(gx, coeff)
    return gx, cat, system, None


def triangle_kappa(coeff: FgAbGroup):
    """The hollow triangle with the holonomy that negates coefficients
    along the far edge."""
    gx = triangle_gx()
    cat, system = constant_setup(gx, coeff)
    ph = fixed_point_system(gx, cat)
    kdata = load_json(fixture_path("twist_triangle.json"))["kappa"]
    choice = PathChoice.from_json(ph, kdata)
    adata = load_json(fixture_path("action_triangle.json"))["edges"]
    acts = EdgeActionSystem.from_json(ph, system, adata)
    return gx, cat, system, EdgePathProvider(ph, choice, acts)


def refs1_setup(coeff: FgAbGroup):
    gx = refs1_gx()
    cat, system = constant_setup(gx, coeff)
    return gx, cat, system, None


def normal_forms(gx, cat, system, provider, nmax: int):
    """Twisted cohomology normal forms in degrees 0..nmax."""
    ecn = min(gx.space.truncation, nmax + 1)
    ec = EquivariantCochains(gx, cat, system, ecn)
    cc = twisted_complex(ec, provider)
    out = []
    for n in range(nmax + 1):
        if n <= ec.nmax:
            out.append(cc.cohomology(n).group.normal_form())
        else:
            out.append((0, ()))
    return out


def ngon_twisted(n: int, coeff: FgAbGroup, order: int = 2,
                 gen_rows=((-1,),)):
    """The n-gon over the trivial group whose edge e0 maps to the
    generator of Z/order, acting by gen_rows on the coefficients."""
    gx = GSimplicialSet(ngon_space(n), FiniteGroup.trivial(), {})
    cat, system = constant_setup(gx, coeff)
    pi = FiniteGroup.cyclic(order)
    twist = GroupTwist(gx.space, pi, {f"e{i}": pi.names[int(i == 0)]
                                      for i in range(n)})
    local = cyclic_local_system(system, pi, gen_rows)
    return gx, cat, system, GroupTwistProvider(local, twist, gx=gx)


class IdentityTwistProvider:
    """No correction: the d_0 term enters untwisted.  Every call at one
    orbit type returns the same identity hom, so memos keyed on the hom
    (the psi of a Cartan theory) serve every cell and every caller."""

    def __init__(self, system: CoefficientSystem):
        self.system = system
        self._identities = {skey: AbHom.identity(g)
                            for skey, g in system.values.items()}

    def phi_hom(self, skey: str, xref: SimplexRef) -> AbHom:
        return self._identities[skey]

    def phi_inv_hom(self, skey: str, xref: SimplexRef) -> AbHom:
        return self._identities[skey]


def trivial_action(system: CoefficientSystem,
                   twist: GroupTwist) -> GroupTwistProvider:
    """A group twist whose group acts trivially on the coefficients.
    `load_setup` reads such a twist as no twist at all, a provider of
    None; its covering space still needs the twist."""
    phi = {}
    for s in system.cat.subgroups:
        ident = AbHom.identity(system.values[s.key])
        for u in twist.pi.names:
            phi[(s.key, u)] = ident
    return GroupTwistProvider(LocalSystem(system, twist.pi, phi), twist)


def twisted_cover(gx: GSimplicialSet, provider: GroupTwistProvider):
    """The covering space P = X x_tau pi of a complex X over the trivial
    group, with its Bredon setup over pi.

    P is the twisted product of `simplicial.PairedComplex` with the
    discrete pi as fibre: cells (g, x) for g in pi and x in X, with
    d_0 (g, x) = (tau(x) g, d_0 x) and the other faces on x alone.  The
    deck transformation of h sends (g, x) to (g h^-1, x), so pi acts
    freely.  The coefficients are M at pi/e, the morphism of
    representative g acting by phi(g), and 0 at every other orbit.  A
    pi-equivariant cochain c is then determined by f(x) = c(e, x), and
    delta c corresponds to the twisted coboundary of f:
    c(d_0 (e, x)) = phi(tau(x))^-1 f(d_0 x).  So the untwisted Bredon
    cohomology of P is the twisted cohomology of X.
    """
    if gx.group.order != 1:
        raise ValueError("the cover is built over a complex without action")
    space, twist, local = gx.space, provider.twist, provider.local
    pi = twist.pi
    fibre = FiniteSimplicialSet(space.truncation, {0: list(pi.names)}, {})

    def left(u: str, ref: SimplexRef) -> SimplexRef:
        return SimplexRef(ref.word, pi.mul(u, ref.base))

    pc = PairedComplex(fibre, space, space.truncation,
                       twist=twist.value, act=left)
    pc.complex.validate()
    perms = {h: {cid: pc.ref_of_pair(
                     SimplexRef(g.word, pi.mul(g.base, pi.inv(h))), x).base
                 for cid, (g, x) in pc.pair_of.items()}
             for h in pi.names}
    cover = GSimplicialSet(pc.complex, pi, perms)
    cat = OrbitCategory(pi)
    skey = local.system.cat.subgroups[0].key
    m = local.system.values[skey]
    values = {s.key: m if s.order == 1 else FgAbGroup.trivial()
              for s in cat.subgroups}
    maps = {}
    for f in cat.all_morphisms():
        if f.src.order == f.tgt.order == 1:
            maps[f.key] = local.act(skey, f.rep)
        else:
            maps[f.key] = AbHom.zero(values[f.tgt.key], values[f.src.key])
    system = CoefficientSystem(cat, values, maps)
    return cover, cat, system, None


def orbit_space(gx: GSimplicialSet) -> GSimplicialSet:
    """X/G over the trivial group: one cell per orbit of nondegenerate
    cells, named by its representative, each face sent to the
    representative of its orbit with its degeneracy word kept.  With
    constant coefficients M, the Bredon cohomology of X is H^*(X/G; M)."""
    space = gx.space
    cells, rep = {}, {}
    for q in range(space.truncation + 1):
        cells[q] = []
        for o in gx.orbits(q):
            cells[q].append(o.rep)
            rep.update(dict.fromkeys(o.members, o.rep))
    faces = {cid: tuple(SimplexRef(r.word, rep[r.base])
                        for r in space.face_table[cid])
             for ids in cells.values() for cid in ids
             if cid in space.face_table}
    return GSimplicialSet(FiniteSimplicialSet(space.truncation, cells, faces),
                          FiniteGroup.trivial(), {})


def rotated_ngon(n: int) -> GSimplicialSet:
    """The n-gon with C_n rotating it, v_i to v_{i+1}; X/G is a circle."""
    g = FiniteGroup.cyclic(n)
    turn = {}
    for i in range(n):
        turn[f"v{i}"] = f"v{(i + 1) % n}"
        turn[f"e{i}"] = f"e{(i + 1) % n}"
    return GSimplicialSet(ngon_space(n), g, {g.names[1]: turn})


def symmetric_polygon(n: int, group: FiniteGroup,
                      affine: dict[str, tuple[int, int]]) -> GSimplicialSet:
    """The n-gon subdivided into a 2n-gon, with `group` acting through
    generators that act on Z/n as i -> eps*i + c, given by name.

    Vertex a_i sits at position 2i of Z/2n and b_i at 2i + 1; edge p_i
    runs a_i -> b_i and q_i runs a_{i+1} -> b_i.  The generator moves
    position x to eps*x + 2c, which keeps parity and so the orientation
    of every edge: reflections act simplicially, as they cannot on the
    n-gon itself.  X/G is an interval when a reflection acts."""
    def vertex(x):
        x %= 2 * n
        return f"{'ab'[x % 2]}{x // 2}"

    def edge(x):  # the edge joining positions x and x + 1
        x %= 2 * n
        return f"{'pq'[x % 2]}{x // 2}"

    # the odd end of each edge is its face 0, the even end its face 1
    faces = {edge(x): (nondeg(vertex(x + 1 - x % 2)),
                       nondeg(vertex(x + x % 2)))
             for x in range(2 * n)}
    space = FiniteSimplicialSet(1, {0: sorted(map(vertex, range(2 * n))),
                                    1: sorted(faces)}, faces)
    perms = {}
    for name, (eps, c) in affine.items():
        perms[name] = {vertex(x): vertex(eps * x + 2 * c)
                       for x in range(2 * n)}
        perms[name].update(
            {edge(x): edge(eps * (x if eps == 1 else x + 1) + 2 * c)
             for x in range(2 * n)})
    return GSimplicialSet(space, group, perms)


def dihedral_polygon(n: int) -> GSimplicialSet:
    """The 2n-gon of `symmetric_polygon` with D_n, generated by the
    rotation i -> i + 1 and the reflection i -> -i."""
    return symmetric_polygon(n, dihedral(n), {"g1": (1, 1), "g2": (-1, 0)})


def s3_polygon() -> GSimplicialSet:
    """The hexagon of `symmetric_polygon` with the library's S_3: r is
    i -> i + 1 and s is i -> 1 - i on Z/3."""
    return symmetric_polygon(3, FiniteGroup.symmetric3(),
                             {"r": (1, 1), "s": (-1, 1)})


# complexes with an action, by name, each made afresh by a call: every
# fixture complex that loads (most over the trivial group), C_n rotating
# and D_n reflecting polygons for n = 3..6, and the S_3 hexagon
ACTION_SPACES = {
    **{name: lambda name=name: load_gx(name)
       for name in ["delta2.json", "refs1.json", "s1.json", "sphere0.json",
                    "sphere2.json", "triangle.json"]},
    **{f"C{n} polygon": lambda n=n: rotated_ngon(n) for n in range(3, 7)},
    **{f"D{n} polygon": lambda n=n: dihedral_polygon(n) for n in range(3, 7)},
    "S3 hexagon": s3_polygon,
}


def signed_edges(gx: GSimplicialSet) -> set[str]:
    """A set of edges, closed under the action, whose indicator is a
    1-cocycle mod 2: with no 2-cell, the first orbit of edges; else the
    edges whose ends lie in vertex orbits of different parity."""
    space = gx.space
    edges = gx.orbits(1) if space.cells.get(1) else []
    if not space.cells.get(2):
        return set(edges[0].members) if edges else set()
    parity = {v: j % 2 for j, o in enumerate(gx.orbits(0)) for v in o.members}
    return {cid for o in edges for cid in o.members
            if len({parity[end] for end in edge_endpoints(space, cid)}) == 2}


def sign_twist(gx: GSimplicialSet) -> GroupTwist:
    """The C_2 twist of gx with value t exactly at the cells whose leading
    edge is one of `signed_edges`: constant on orbits, and its face
    identities hold because the indicator is a cocycle."""
    space, pi = gx.space, FiniteGroup.cyclic(2)
    marked = signed_edges(gx)
    values = {}
    for q in range(1, space.truncation + 1):
        for cid in space.cells.get(q, []):
            edge = nondeg(cid)
            for i in range(q, 1, -1):
                edge = space.face(i, edge)
            values[cid] = pi.names[int(not edge.word and edge.base in marked)]
    return GroupTwist(space, pi, values)


def edge_path_provider(gx: GSimplicialSet, cat: OrbitCategory,
                       system: CoefficientSystem) -> EdgePathProvider | None:
    """Edge-path transport on gx: each edge of `signed_edges` acts by -1
    in every fixed complex, the rest by 1, with paths found breadth first
    from the first vertex the whole group fixes.  None where no vertex is
    fixed by the whole group or a fixed complex is not connected."""
    space = gx.space
    base = next((v for v in space.cells[0]
                 if all(p[v] == v for p in gx.perms.values())), None)
    if base is None:
        return None
    ph = fixed_point_system(gx, cat)
    paths = {}
    for s in cat.subgroups:
        fc = ph.complexes[s.key]
        ends = {e: edge_endpoints(fc, e) for e in fc.cells.get(1, [])}
        reached, frontier = {base: []}, [base]
        while frontier:
            step = []
            for v in frontier:
                for e, (a, b) in ends.items():
                    for x, y, d in ((a, b, 1), (b, a, -1)):
                        if x == v and y not in reached:
                            reached[y] = reached[v] + [(e, d)]
                            step.append(y)
            frontier = step
        if len(reached) < len(fc.cells.get(0, [])):
            return None
        paths.update({(s.key, v): EdgeWord(w) for v, w in reached.items()})
    marked = signed_edges(gx)
    mats = {}
    for s in cat.subgroups:
        val = system.values[s.key]
        for e in ph.complexes[s.key].cells.get(1, []):
            sign = -1 if e in marked else 1
            mats[(s.key, e)] = AbHom(val, val, IntMatrix(
                [[sign * (i == j) for j in range(val.ngens)]
                 for i in range(val.ngens)], val.ngens))
    return EdgePathProvider(ph, PathChoice(ph, base, paths),
                            EdgeActionSystem(ph, system, mats))


def torus_twist(pi: FiniteGroup, a: int, b: int) -> GroupTwist:
    """The a x b torus twisted along its first factor: the a-gon's edge e0
    carries the generator, pulled back along the projection."""
    ngon = ngon_space(a)
    on_ngon = GroupTwist(ngon, pi, {f"e{i}": pi.names[int(i == 0)]
                                    for i in range(a)})
    pc = product(ngon, ngon_space(b), truncation=3)
    return GroupTwist(pc.complex, pi, {
        cid: on_ngon.value(pc.pair_of[cid][0])
        for q in range(1, 4) for cid in pc.complex.cells[q]})


def times_polygon(gx: GSimplicialSet, n: int) -> GSimplicialSet:
    """gx times the n-gon, the group acting on the left factor; its
    orbit space is that of gx times the n-gon."""
    pc = product(gx.space, ngon_space(n), truncation=gx.space.dimension + 1)
    perms = {g: {cid: pc.ref_of_pair(SimplexRef(rx.word, table[rx.base]),
                                     ry).base
                 for cid, (rx, ry) in pc.pair_of.items()}
             for g, table in gx.perms.items()}
    return GSimplicialSet(pc.complex, gx.group, perms)


def trivial_twist(space: FiniteSimplicialSet,
                  pi: FiniteGroup) -> GroupTwist:
    """The twist of `space` with every value the identity of pi."""
    values = {cid: pi.identity
              for q in range(1, space.truncation + 1)
              for cid in space.cells[q]}
    return GroupTwist(space, pi, values, check=False)


def c2_category():
    return OrbitCategory(FiniteGroup.cyclic(2))


def nonconstant_system(cat: OrbitCategory, top: FgAbGroup,
                       bottom: FgAbGroup, mat_rows) -> CoefficientSystem:
    """System over the two-subgroup orbit category of Z/2 with distinct
    values; mat_rows gives the restriction from the fixed orbit value
    to the free orbit value."""
    tkey = min((s for s in cat.subgroups), key=lambda s: s.order).key
    fkey = max((s for s in cat.subgroups), key=lambda s: s.order).key
    values = {tkey: top, fkey: bottom}
    maps = {}
    for m in cat.all_morphisms():
        if m.is_identity():
            maps[m.key] = AbHom.identity(values[m.src.key])
        elif m.src.key == tkey and m.tgt.key == fkey:
            maps[m.key] = AbHom(bottom, top,
                                IntMatrix(mat_rows, bottom.ngens))
        else:
            maps[m.key] = AbHom.identity(values[m.src.key])
    return CoefficientSystem(cat, values, maps)


# planted negative controls ------------------------------------------

def with_zero_delta(theory: CartanTheory, at: int = 1) -> CartanTheory:
    """Copy with delta^at replaced by zero; breaks exactness only."""
    if not 1 <= at < theory.i_max:
        raise ValueError("the planted degree must be interior")
    deltas = []
    for i, dd in enumerate(theory.deltas):
        if i != at:
            deltas.append(dd)
        else:
            deltas.append({skey: [AbHom.zero(h.source, h.target)
                                  for h in homs]
                           for skey, homs in dd.items()})
    return CartanTheory(theory.cat, theory.coeffs, theory.terms, deltas,
                        theory.psi, theory.i_max, theory.p_max)


def with_nonzero_square(theory: CartanTheory, at: int = 1) -> CartanTheory:
    """Copy whose delta^at o delta^(at-1) is nonzero at the top level
    of every orbit.

    At that level, delta^at gains a 1 in its first row, in the column
    of the first nonzero row of delta^(at-1), so the composite picks up
    that row.  Axiom 1 reports the square; exactness is undefined there.
    """
    if not 1 <= at < theory.i_max:
        raise ValueError("the planted degree must be interior")
    q = theory.p_max
    planted = {}
    for skey, homs in theory.deltas[at].items():
        h, below = homs[q], theory.deltas[at - 1][skey][q]
        col = next((i for i, row in enumerate(below.matrix.rows) if any(row)),
                   None)
        if col is None or not h.target.ngens:
            raise ValueError(f"no square to plant at {skey}, level {q}")
        rows = [list(r) for r in h.matrix.rows]
        rows[0][col] += 1
        planted[skey] = homs[:q] + [
            AbHom(h.source, h.target, IntMatrix(rows, h.source.ngens))
        ] + homs[q + 1:]
    deltas = list(theory.deltas)
    deltas[at] = planted
    return CartanTheory(theory.cat, theory.coeffs, theory.terms, deltas,
                        theory.psi, theory.i_max, theory.p_max)


def with_broken_face(theory: CartanTheory, at: int = 1, level: int = 2,
                     face: int = 1) -> CartanTheory:
    """Copy whose term A^at has the face d_face at `level` replaced by
    zero in every orbit's object.

    The object then fails its simplicial identities, so axiom 1 reports
    it, and its alternating face sum does not square to zero, so axiom 3
    cannot read its homotopy there.
    """
    term = theory.terms[at]
    broken = {}
    for sab in term.objects.values():
        if sab not in broken:
            faces = dict(sab.faces)
            old = faces[(level, face)]
            faces[(level, face)] = AbHom.zero(old.source, old.target)
            broken[sab] = SimplicialAb(sab.levels, faces, sab.degs)
    terms = list(theory.terms)
    terms[at] = OGSimplicialAb(
        term.cat, {k: broken[v] for k, v in term.objects.items()}, term.maps)
    return CartanTheory(theory.cat, theory.coeffs, terms, theory.deltas,
                        theory.psi, theory.i_max, theory.p_max)


def zero_theory(cat: OrbitCategory, coeffs: CoefficientSystem,
                i_max: int, p_max: int) -> CartanTheory:
    """All terms zero while still declaring the coefficients.

    Every structural and exactness axiom holds vacuously, but the
    kernel term cannot recover a nonzero M, so simplicial triviality
    of Z^0 fails in its coefficient clause.
    """
    zero = FgAbGroup.trivial()
    zh = AbHom.identity(zero)
    levels = [zero] * (p_max + 1)
    faces = {(q, i): zh for q in range(1, p_max + 1) for i in range(q + 1)}
    degs = {(q, j): zh for q in range(p_max) for j in range(q + 1)}
    sab = SimplicialAb(levels, faces, degs)
    objects = {s.key: sab for s in cat.subgroups}
    maps = {m.key: [zh] * (p_max + 1) for m in cat.all_morphisms()}
    term = OGSimplicialAb(cat, objects, maps)
    terms = [term] * (i_max + 1)
    deltas = [{s.key: [zh] * (p_max + 1) for s in cat.subgroups}
              for _ in range(i_max)]

    def psi(skey, alpha, i, q):
        return zh

    return CartanTheory(cat, coeffs, terms, deltas, psi, i_max, p_max)


def with_blinded_psi(theory: CartanTheory, skey: str,
                     at_i: int = 0) -> CartanTheory:
    """Copy whose psi ignores nonidentity automorphisms in one term."""

    def psi(sk, alpha, i, q):
        if sk == skey and i == at_i and \
                not alpha.equal_as_maps(AbHom.identity(alpha.source)):
            return AbHom.identity(theory.terms[i].objects[sk].levels[q])
        return theory.psi(sk, alpha, i, q)

    return CartanTheory(theory.cat, theory.coeffs, theory.terms,
                        theory.deltas, psi, theory.i_max, theory.p_max)


# a second valid theory ----------------------------------------------

def _block_diag(source, target, mats) -> AbHom:
    return assemble_hom(source, target,
                        [((k, k), m) for k, m in enumerate(mats)])


def _levelwise_sum(sabs: list[SimplicialAb]) -> SimplicialAb:
    """The levelwise direct sum of simplicial abelian groups."""
    levels = [direct_sum([s.levels[q] for s in sabs])
              for q in range(sabs[0].top + 1)]
    faces = {(q, i): _block_diag(levels[q], levels[q - 1],
                                 [s.faces[(q, i)].matrix for s in sabs])
             for q, i in sabs[0].faces}
    degs = {(q, j): _block_diag(levels[q], levels[q + 1],
                                [s.degs[(q, j)].matrix for s in sabs])
            for q, j in sabs[0].degs}
    return SimplicialAb(levels, faces, degs)


def theory_plus_cone(cat: OrbitCategory, coeffs: CoefficientSystem,
                     cone: FgAbGroup, i_max: int, p_max: int,
                     unit: int = 1) -> CartanTheory:
    """The canonical theory plus an acyclic cone on the constant group N:
    A'^i = C(M, i) + C(N, i) + C(N, i - 1), the last summand absent at
    i = 0, with delta(a, b) = (delta a, unit * a - delta b) on the cone
    part, and the maps of the orbit category and psi the identity there.

    With unit 1 each level of the cone is the mapping cone of the
    identity, so it is exact with Z^0 = 0: the theory satisfies the
    axioms and its lift cohomology is the canonical one, but its
    coordinates do not project onto the coefficients.  With unit 2 it
    is still a complex, of simplicial coefficient systems, but not an
    exact one.
    """
    base = canonical_theory(cat, coeffs, i_max, p_max)
    models = [CochainModel(cone, i, p_max) for i in range(i_max + 1)]
    cones = [simplicial_ab_of_model(m) for m in models]

    def parts(i):
        return [cones[i]] + ([cones[i - 1]] if i else [])

    def ones(i, q):
        return [IntMatrix.identity(c.levels[q].ngens) for c in parts(i)]

    terms, summed = [], {}
    for i, term in enumerate(base.terms):
        for sab in term.objects.values():
            if sab not in summed:
                summed[sab] = _levelwise_sum([sab] + parts(i))
        objects = {k: summed[v] for k, v in term.objects.items()}
        maps = {m.key: [_block_diag(objects[m.tgt.key].levels[q],
                                    objects[m.src.key].levels[q],
                                    [h.matrix] + ones(i, q))
                        for q, h in enumerate(term.maps[m.key])]
                for m in cat.all_morphisms()}
        terms.append(OGSimplicialAb(cat, objects, maps))
    deltas = []
    for i in range(i_max):
        cone_d = [delta_hom(models[i], models[i + 1], q).matrix
                  for q in range(p_max + 1)]
        below = [delta_hom(models[i - 1], models[i], q).matrix
                 for q in range(p_max + 1)] if i else None
        dd = {}
        for s in cat.subgroups:
            lower, upper = terms[i].objects[s.key], terms[i + 1].objects[s.key]
            row = []
            for q, h in enumerate(base.deltas[i][s.key]):
                n = cones[i].levels[q].ngens
                a = IntMatrix([[unit * (r == c) for c in range(n)]
                               for r in range(n)], n)
                blocks = [((0, 0), h.matrix), ((1, 1), cone_d[q]),
                          ((2, 1), a)]
                if i:
                    blocks.append(((2, 2), -below[q]))
                row.append(assemble_hom(lower.levels[q], upper.levels[q],
                                        blocks))
            dd[s.key] = row
        deltas.append(dd)

    def psi(skey, alpha, i, q):
        level = terms[i].objects[skey].levels[q]
        return _block_diag(level, level,
                           [base.psi(skey, alpha, i, q).matrix] + ones(i, q))

    return CartanTheory(cat, coeffs, terms, deltas, psi, i_max, p_max)


# brute-force vertical homotopy search --------------------------------
# The reference that cartan.vertical_homotopy is checked against.

class BudgetExceeded(Exception):
    pass


def vertical_homotopy_oracle(ls: LiftSystem, n: int, f, g,
                             budget: int = 200000):
    """Search for an equivariant vertical homotopy from f to g.

    f and g are degree-n lift elements in canonical coordinates.  The
    homotopy is a cocycle-valued lift on the cylinder restricting to f
    and g at the ends, found (or refuted) by exhaustive search over the
    kernel-term values on middle cell orbits, dimension by dimension.
    Returns (found, tried): found is True or False when the search is
    conclusive and None when the budget ran out first.
    """
    ec = ls.ec
    theory = ls.theory
    provider = ls.provider
    if n >= theory.i_max:
        raise ValueError("kernel term needs the next differential")
    pc, gcyl = cylinder_with_action(ec.gx)
    space = pc.complex
    maxdim = 0
    for q, ids in space.cells.items():
        if ids:
            maxdim = max(maxdim, q)
    if maxdim > theory.p_max:
        raise ValueError("theory truncated below the cylinder dimension")
    cat = ec.cat
    zn = kernel_term(theory, n)
    for s in cat.subgroups:
        for q in range(maxdim + 1):
            if not zn.objects[s.key].levels[q].is_finite:
                raise ValueError("search needs finite kernel levels")
    orbits = {q: gcyl.orbits(q) for q in range(maxdim + 1)}
    oindex = {}
    for q, os in orbits.items():
        for jj, o in enumerate(os):
            for cid in o.members:
                oindex[cid] = (q, o)

    def expand(values, hkey, ref):
        q, o = oindex[ref.base]
        gname = o.transporters[ref.base]
        m = cat.coset_morphism(cat.by_key[hkey], cat.by_key[o.stab_key],
                               gname)
        val = zn.maps[m.key][q].apply(values[o.rep])
        obj = zn.objects[hkey]
        lvl = q
        for jj in reversed(ref.word):
            val = obj.degs[(lvl, jj)].apply(val)
            lvl += 1
        return val

    psi_cache = {}

    def twist_hom(hkey, rx, q):
        key = (hkey, rx, q)
        if key not in psi_cache:
            ph = theory.psi(hkey, provider.phi_hom(hkey, rx), n, q)
            inc = zn.inclusions[hkey][q]
            psi_cache[key] = ph.compose(inc).factor_through(inc)
        return psi_cache[key]

    def cell_ok(values, o, q):
        hkey = o.stab_key
        obj = zn.objects[hkey]
        ref = nondeg(o.rep)
        rx, _ry = pc.pair_of[o.rep]
        for i in range(q + 1):
            want = expand(values, hkey, space.face(i, ref))
            got = obj.faces[(q, i)].apply(values[o.rep])
            if i == 0 and provider is not None:
                got = twist_hom(hkey, rx, q - 1).apply(got)
            if want != got:
                return False
        return True

    values = {}
    middles = []
    for q in range(maxdim + 1):
        for o in orbits[q]:
            rx, ry = pc.pair_of[o.rep]
            if ry.base == "0-1":
                middles.append((q, o))
                continue
            src = f if ry.base == "0" else g
            aval = ls.value_at(n, src, o.stab_key, rx)
            zv = element_preimage(zn.inclusions[o.stab_key][q], aval)
            if zv is None:
                # an end value escapes the kernel term; no homotopy can
                # restrict to it
                return False, 0
            values[o.rep] = zv
    for q in range(1, maxdim + 1):
        for o in orbits[q]:
            if o.rep in values and not cell_ok(values, o, q):
                raise ValueError("end restriction violates the face laws")

    state = {"tried": 0}

    def backtrack(k):
        if k == len(middles):
            return True
        q, o = middles[k]
        for cand in zn.objects[o.stab_key].levels[q].elements():
            state["tried"] += 1
            if state["tried"] > budget:
                raise BudgetExceeded
            values[o.rep] = cand
            if cell_ok(values, o, q) and backtrack(k + 1):
                return True
        values.pop(o.rep, None)
        return False

    try:
        found = backtrack(0)
    except BudgetExceeded:
        return None, state["tried"]
    return found, state["tried"]


# dense Smith normal form ----------------------------------------------
# The elimination intmat.smith_normal_form ran before it kept sparse
# rows, kept verbatim: the sparse one must make the same operations, so
# both return the same (d, u, v, uinv) entry for entry.

def dense_smith_normal_form(
    a: IntMatrix,
) -> tuple[IntMatrix, IntMatrix, IntMatrix, IntMatrix]:
    """Return (d, u, v, uinv) with u*a*v = d in Smith normal form.

    d is diagonal with nonnegative entries d_1 | d_2 | ... (zeros trail),
    u and v are unimodular and uinv is the inverse of u.  Elementary row
    operations accumulate in u, column operations in v, and every row
    operation on u is mirrored in uinv as the inverse column operation
    (a row swap as the same column swap, a row negation as the same
    column negation, row_i -= q*row_j as col_j += q*col_i), so the
    inverse costs no second elimination.

    The pivot is the first entry of least absolute value in row-major
    order, so the search stops at the first entry of absolute value 1;
    and a pivot 1 divides everything, so the divisibility scan of the
    remaining submatrix is skipped for it.  Neither shortcut changes
    which operations run, hence d, u and v are the same as without them.
    """
    m, n = a.nrows, a.ncols
    s = [list(r) for r in a.rows]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    # uinv is kept transposed, so its column operations are row operations
    w = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]
        w[i], w[j] = w[j], w[i]

    def swap_cols(i, j):
        for r in s:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def negate_row(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]
        w[i] = [-x for x in w[i]]

    def row_sub(i, j, q):
        # row_i -= q * row_j; uinv: col_j += q * col_i
        s[i] = [x - q * y for x, y in zip(s[i], s[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]
        w[j] = [x + q * y for x, y in zip(w[j], w[i])]

    def col_sub(i, j, q):
        # col_i -= q * col_j
        for r in s:
            r[i] -= q * r[j]
        for r in v:
            r[i] -= q * r[j]

    def row_add(i, j):
        # row_i += row_j; uinv: col_j -= col_i
        s[i] = [x + y for x, y in zip(s[i], s[j])]
        u[i] = [x + y for x, y in zip(u[i], u[j])]
        w[j] = [x - y for x, y in zip(w[j], w[i])]

    def find_pivot(t):
        # the first nonzero entry of least absolute value in the trailing
        # submatrix, in row-major order; nothing is smaller than a unit
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = s[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    if abs(x) == 1:
                        return (i, j)
                    best = abs(x)
                    piv = (i, j)
        return piv

    t = 0
    while t < min(m, n):
        piv = find_pivot(t)
        if piv is None:
            break
        if piv[0] != t:
            swap_rows(t, piv[0])
        if piv[1] != t:
            swap_cols(t, piv[1])
        if s[t][t] < 0:
            negate_row(t)
        while True:
            restart = False
            for i in range(t + 1, m):
                if s[i][t]:
                    q = s[i][t] // s[t][t]
                    if q:
                        row_sub(i, t, q)
                    if s[i][t]:
                        # remainder is a strictly smaller pivot
                        swap_rows(i, t)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, n):
                if s[t][j]:
                    q = s[t][j] // s[t][t]
                    if q:
                        col_sub(j, t, q)
                    if s[t][j]:
                        swap_cols(j, t)
                        restart = True
                        break
            if restart:
                continue
            if any(s[i][t] for i in range(t + 1, m)):
                continue
            if any(s[t][j] for j in range(t + 1, n)):
                continue
            # pivot must divide the whole remaining submatrix
            p = s[t][t]
            if p == 1:
                break
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if s[i][j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_add(t, bad)
        t += 1
    for i in range(min(m, n)):
        if s[i][i] < 0:
            negate_row(i)
    return (IntMatrix(s, n), IntMatrix(u, m), IntMatrix(v, n),
            IntMatrix(zip(*w), m))


# determinant ----------------------------------------------------------
# The unimodularity tests of the Smith normal form read it; the package
# itself never needs a determinant.

def determinant(a: IntMatrix) -> int:
    """Fraction-free Bareiss determinant of a square matrix."""
    if a.nrows != a.ncols:
        raise ValueError("determinant needs a square matrix")
    n = a.nrows
    if n == 0:
        return 1
    s = [list(r) for r in a.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if s[k][k] == 0:
            for i in range(k + 1, n):
                if s[i][k]:
                    s[k], s[i] = s[i], s[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                s[i][j] = (s[i][j] * s[k][k] - s[i][k] * s[k][j]) // prev
        prev = s[k][k]
    return sign * s[n - 1][n - 1]


# cochains evaluated at a cell ----------------------------------------
# A Bredon cochain read at any cell of a fixed complex, through the
# coefficient map of the orbit morphism the cell's transporter gives.

def evaluate_cochain(ec: EquivariantCochains, n: int,
                     coords: tuple[int, ...], skey: str,
                     ref: SimplexRef) -> tuple[int, ...]:
    """Value of a cochain at a cell of the skey-fixed complex, as a
    normal-form vector in M(G/H).  Degenerate simplices give zero."""
    target = ec.system.values[skey]
    if ref.word:
        return target.zero()
    j, orb = next((j, o) for j, o in enumerate(ec.orbits[n])
                  if ref.base in o.transporters)
    g = orb.transporters[ref.base]
    m = ec.cat.coset_morphism(ec.cat.by_key[skey],
                              ec.cat.by_key[orb.stab_key], g)
    cochains = ec.groups[n]
    piece = cochains.summands[j].reduce(coords[cochains.span(j)])
    return target.reduce(ec.system.maps[m.key].apply(piece))


# cohomology through a presented kernel -------------------------------
# `abgroups.cohomology_at` and `AbHom.is_iso` as they were when both
# built the kernel as a group: one more `kernel_basis` and one more
# Smith normal form per call.  The package must agree with them on
# every relation matrix and representative.  Both reach `kernel_basis`
# through its module, so a spy on intmat counts their eliminations.

def reference_cohomology_at(at: FgAbGroup, incoming: AbHom | None,
                            outgoing: AbHom | None) -> Subquotient:
    if incoming is not None and outgoing is not None:
        if not outgoing.compose(incoming).is_zero_map:
            raise ValueError("not a complex: d o d != 0")
    if outgoing is not None:
        ker, incl = outgoing.kernel()
    else:
        ker, incl = at, AbHom.identity(at)
    pieces = [incl.matrix]
    if incoming is not None:
        pieces.append(incoming.matrix)
    pieces.append(at.rels)
    big = IntMatrix.hstack(pieces)
    rel_cols = [v[: ker.ngens] for v in intmat.kernel_basis(big)]
    rel_cols = [c for c in rel_cols if any(c)]
    h = FgAbGroup(ker.ngens,
                  IntMatrix.from_cols(rel_cols, ker.ngens) if rel_cols
                  else IntMatrix.zeros(ker.ngens, 0))
    return Subquotient(h, incl.matrix)


# orbits found afresh --------------------------------------------------
# `GSimplicialSet.orbits` as it was before each complex kept its orbits:
# the same search, run on every call

def reference_orbits(gx: GSimplicialSet, q: int) -> list[CellOrbit]:
    """G-orbits of nondegenerate q-cells, with canonical representatives."""
    seen = set()
    out = []
    for cid in gx.space.cells.get(q, []):
        if cid in seen:
            continue
        members = sorted({gx.perms[g][cid] for g in gx.group.names})
        rep = min(members)
        seen.update(members)
        transporters = {}
        for target in members:
            for g in gx.group.names:  # names are in table order
                if gx.perms[g][rep] == target:
                    transporters[target] = g
                    break
        out.append(CellOrbit(rep, tuple(members),
                             gx.stabilizer_members(rep), transporters))
    out.sort(key=lambda o: o.rep)
    return out


# homotopy through Moore subgroups ------------------------------------
# `cartan.moore_homotopy` as it was before it read the unnormalized
# complex: pi_* as the homology of the normalized (Moore) complex, one
# kernel and two direct sums per level, d_0 factored through the
# inclusions.  The package must agree with it on every normal form.

def moore_subgroup(sab: SimplicialAb, q: int) -> tuple[FgAbGroup, AbHom]:
    """The normalized chain group N_q = ker d_1 .. ker d_q with inclusion."""
    g = sab.levels[q]
    if q == 0:
        return g, AbHom.identity(g)
    blocks = [((i, 0), sab.faces[(q, i + 1)].matrix) for i in range(q)]
    hom = assemble_hom(direct_sum([g]), direct_sum([sab.levels[q - 1]] * q),
                       blocks)
    return hom.kernel()


def reference_moore_homotopy(sab: SimplicialAb) -> list[FgAbGroup]:
    """Homotopy pi_0 .. pi_{top-1} as homology of the Moore complex
    N_top -> ... -> N_0 under d_0; each N_q and each d_0 is built once."""
    incs = [moore_subgroup(sab, q)[1] for q in range(sab.top + 1)]
    d0 = [None] + [sab.faces[(q, 0)].compose(incs[q]).factor_through(
        incs[q - 1]) for q in range(1, sab.top + 1)]
    return [cohomology_at(incs[n].source, d0[n + 1], d0[n]).group
            for n in range(sab.top)]


def reference_is_iso(h: AbHom) -> bool:
    k, _ = h.kernel()
    return k.is_trivial and h.cokernel().is_trivial


def reference_equal_as_maps(f: AbHom, g: AbHom) -> bool:
    """`AbHom.equal_as_maps` without its first test: every column of
    the difference is reduced into the target's canonical coordinates."""
    if f.matrix.ncols != g.matrix.ncols:
        return False
    diff = f.matrix - g.matrix
    return not any(any(f.target.from_vector(c)) for c in diff.cols())


# subgroups by closing every subset ----------------------------------
# `groups.all_subgroups` as it was before cyclic extension: 2^|G|
# closures on element names, so only for groups of order <= 12.

def reference_closure(g: FiniteGroup, gens) -> frozenset[str]:
    members = {g.identity} | set(gens)
    while True:
        new = {g.mul(a, b) for a in members for b in members} \
            | {g.inv(a) for a in members}
        if new <= members:
            return frozenset(members)
        members |= new


def reference_all_subgroups(g: FiniteGroup) -> list[tuple[int, str]]:
    """(order, key) of every subgroup, sorted as `all_subgroups` sorts."""
    found = {reference_closure(g, gens)
             for r in range(len(g.names) + 1)
             for gens in itertools.combinations(g.names, r)}
    return sorted((len(h), ",".join(sorted(h))) for h in found)


# orbit category on element names -----------------------------------
# `groups.OrbitCategory` as it was before it worked on table indices:
# |S|^2 |G| |H| name-level conjugations, and each lookup builds its coset.

def _morphism(group, src, tgt, coset) -> OrbitMorphism:
    """The morphism on a coset, with its least member found by name."""
    return OrbitMorphism(src, tgt, coset,
                         min(coset, key=lambda n: group.index[n]))


class _NameLevelOrbitCategory:
    def __init__(self, group: FiniteGroup):
        self.group = group
        self.subgroups = all_subgroups(group)
        self.by_key = {s.key: s for s in self.subgroups}
        self._morphisms = {}
        self._hom = {}
        for src in self.subgroups:
            for tgt in self.subgroups:
                homs, seen = [], set()
                for gname in group.names:
                    ginv = group.inv(gname)
                    if any(group.mul(ginv, group.mul(h, gname))
                           not in tgt.members for h in src.members):
                        continue
                    coset = frozenset(group.mul(gname, k)
                                      for k in tgt.members)
                    if coset in seen:
                        continue
                    seen.add(coset)
                    m = _morphism(group, src, tgt, coset)
                    homs.append(m)
                    self._morphisms[m.key] = m
                homs.sort(key=lambda m: group.index[m.rep])
                self._hom[(src.key, tgt.key)] = homs

    def hom(self, src_key: str, tgt_key: str) -> list[OrbitMorphism]:
        return self._hom[(src_key, tgt_key)]

    def identity(self, key: str) -> OrbitMorphism:
        s = self.by_key[key]
        return self.coset_morphism(s, s, self.group.identity)

    def coset_morphism(self, src, tgt, gname: str) -> OrbitMorphism:
        coset = frozenset(self.group.mul(gname, k) for k in tgt.members)
        m = _morphism(self.group, src, tgt, coset)
        return self._morphisms[m.key]

    def compose(self, f: OrbitMorphism, h: OrbitMorphism) -> OrbitMorphism:
        if f.tgt.key != h.src.key:
            raise ValueError("morphisms do not compose")
        return self.coset_morphism(f.src, h.tgt,
                                   self.group.mul(f.rep, h.rep))

    def all_morphisms(self) -> list[OrbitMorphism]:
        return [self._morphisms[k] for k in sorted(self._morphisms)]


def reference_orbit_category(group: FiniteGroup) -> _NameLevelOrbitCategory:
    return _NameLevelOrbitCategory(group)


def generated_group(gens, mul, identity) -> FiniteGroup:
    """The group that `gens` generate under `mul`, as a table; the
    elements are named e, g1, g2, ... in the order they are reached."""
    elements, index = [identity], {identity: 0}
    for a in elements:
        for s in gens:
            b = mul(a, s)
            if b not in index:
                index[b] = len(elements)
                elements.append(b)
    names = ["e"] + [f"g{k}" for k in range(1, len(elements))]
    return FiniteGroup(names, [[index[mul(a, b)] for b in elements]
                               for a in elements])


def permutation_group(*gens: tuple[int, ...]) -> FiniteGroup:
    return generated_group(
        gens, lambda p, q: tuple(p[i] for i in q), tuple(range(len(gens[0]))))


def symmetric4() -> FiniteGroup:
    return permutation_group((1, 0, 2, 3), (1, 2, 3, 0))


def dihedral(n: int) -> FiniteGroup:
    """Symmetries of the n-gon, of order 2n."""
    return permutation_group(tuple((i + 1) % n for i in range(n)),
                             tuple(-i % n for i in range(n)))


def abelian(*orders: int) -> FiniteGroup:
    """C_orders[0] x C_orders[1] x ..."""
    def add(a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, orders))
    units = [tuple(int(i == k) for i in range(len(orders)))
             for k in range(len(orders))]
    return generated_group(units, add, (0,) * len(orders))


def quaternion8() -> FiniteGroup:
    def hamilton(p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)
    return generated_group([(0, 1, 0, 0), (0, 0, 1, 0)], hamilton,
                           (1, 0, 0, 0))


# loading checks on element and cell names ---------------------------
# `GSimplicialSet.validate`, `OGComplex.validate` and
# `fixed_point_system` as they were before they read tables: the face
# check pushes references through `FiniteSimplicialSet.face` and
# `GSimplicialSet.apply`, the functoriality check applies one
# `SimplicialMap` per cell, and the check that a transport stays in its
# fixed complex runs after the system is built.  The package must pass
# what they pass and raise what they raise.

class _NameLevelGSimplicialSet:
    def __init__(self, space: FiniteSimplicialSet, group: FiniteGroup,
                 perms: dict[str, dict[str, str]]):
        self.space = space
        self.group = group
        self.perms = perms
        self.validate()

    def validate(self):
        g = self.group
        fs = self.space
        all_ids = [cid for ids in fs.cells.values() for cid in ids]
        for a in g.names:
            p = self.perms[a]
            for cid in all_ids:
                if fs.dim_of(p[cid]) != fs.dim_of(cid):
                    raise ValueError(f"{a} moves {cid!r} across dimensions")
            if sorted(p.values()) != sorted(all_ids):
                raise ValueError(f"{a} does not act bijectively")
        for a in g.names:
            for b in g.names:
                pa, pb, pab = self.perms[a], self.perms[b], \
                    self.perms[g.mul(a, b)]
                for cid in all_ids:
                    if pa[pb[cid]] != pab[cid]:
                        raise ValueError("action fails the group law")
        for a in g.names:
            for q in range(1, fs.truncation + 1):
                for cid in fs.cells[q]:
                    for i in range(q + 1):
                        if self.apply(a, fs.face(i, nondeg(cid))) != \
                                fs.face(i, self.apply(a, nondeg(cid))):
                            raise ValueError(
                                f"{a} fails to commute with d{i} at {cid!r}")

    def apply(self, g: str, ref: SimplexRef) -> SimplexRef:
        return SimplexRef(ref.word, self.perms[g][ref.base])


def reference_action_check(space: FiniteSimplicialSet, group: FiniteGroup,
                           perms: dict[str, dict[str, str]]) -> None:
    """The checks of an action given on every element."""
    _NameLevelGSimplicialSet(space, group, perms)


class _NameLevelOGComplex:
    def __init__(self, cat: OrbitCategory, complexes: dict,
                 maps: dict):
        self.cat = cat
        self.complexes = complexes
        self.maps = maps
        self.validate()

    def validate(self):
        for s in self.cat.subgroups:
            ident = self.cat.identity(s.key)
            m = self.maps[ident.key]
            for ids in self.complexes[s.key].cells.values():
                for cid in ids:
                    if m.values[cid] != nondeg(cid):
                        raise ValueError(f"identity of {s.key} acts nontrivially")
        # maps[f] after maps[h] against maps[h o f], cell by cell, with no
        # composite SimplicialMap built
        for f, h in self.cat.composable_pairs():
            then = self.maps[f.key].apply
            want = self.maps[self.cat.compose(f, h).key].values
            if {cid: then(ref) for cid, ref in
                    self.maps[h.key].values.items()} != want:
                raise ValueError(f"functoriality fails at {f.key} ; {h.key}")


def reference_system_check(cat: OrbitCategory, complexes: dict,
                           maps: dict) -> None:
    """The checks of a system of fixed complexes, in their old order:
    identities and functoriality, then the transports."""
    _NameLevelOGComplex(cat, complexes, maps)
    # the transported cells must indeed be fixed by the source subgroup
    for m in cat.all_morphisms():
        for cid, ref in maps[m.key].values.items():
            if not complexes[m.src.key].has_cell(ref.base):
                raise ValueError(
                    f"transport along {m.key} leaves the fixed complex")


def reference_fixed_complex(gx: GSimplicialSet,
                            members) -> FiniteSimplicialSet:
    fixed = []
    for q in range(gx.space.truncation + 1):
        for cid in gx.space.cells[q]:
            if all(gx.perms[h][cid] == cid for h in members):
                fixed.append(cid)
    keep = set(fixed)
    cells = {q: [c for c in gx.space.cells[q] if c in keep]
             for q in range(gx.space.truncation + 1)}
    faces = {cid: gx.space.face_table[cid]
             for cid in keep if cid in gx.space.face_table}
    return FiniteSimplicialSet(gx.space.truncation, cells, faces,
                               check=False)


def reference_fixed_point_maps(gx: GSimplicialSet, cat: OrbitCategory):
    """The fixed complexes and transport maps, one subgroup and one
    morphism at a time, unchecked."""
    complexes = {s.key: reference_fixed_complex(gx, s.members)
                 for s in cat.subgroups}
    maps = {}
    for m in cat.all_morphisms():
        src_cx = complexes[m.src.key]
        tgt_cx = complexes[m.tgt.key]
        vals = {}
        for ids in tgt_cx.cells.values():
            for cid in ids:
                vals[cid] = nondeg(gx.perms[m.rep][cid])
        maps[m.key] = SimplicialMap(tgt_cx, src_cx, vals, check=False)
    return complexes, maps


# twist checks on every simplex ---------------------------------------
# `GroupTwist.validate`, `check_naturality` and `LocalSystem.validate`
# as they were before a twist was checked once: the identities are
# checked on every simplex up to the truncation, degenerate ones
# included, through `FiniteSimplicialSet.face` and `degeneracy`;
# naturality builds one classifying map per fixed complex; and the
# action is checked to be invertible after its homomorphism law.  The
# package must pass what they pass and raise what they raise.

def reference_twist_check(twist: GroupTwist) -> None:
    fs, pi, value = twist.space, twist.pi, twist.value
    for key in twist.values:
        if not fs.has_cell(key) or fs.dim_of(key) < 1:
            raise ValueError(f"twist 'values' key {key!r} names no cell "
                             f"of dimension >= 1")
    for q in range(1, fs.truncation + 1):
        for cid in fs.cells[q]:
            if cid not in twist.values:
                raise ValueError(f"no twist value on {cid!r}")
            if twist.values[cid] not in pi.index:
                raise ValueError(f"twist value on {cid!r} not in the group")
    for q in range(1, fs.truncation + 1):
        for ref in fs.all_refs(q):
            if q >= 2:
                lhs = value(fs.face(1, ref))
                rhs = pi.mul(value(fs.face(0, ref)), value(ref))
                if lhs != rhs:
                    raise ValueError(f"tau(d1 x) != tau(d0 x) tau(x) at {ref}")
                for i in range(2, q + 1):
                    if value(fs.face(i, ref)) != value(ref):
                        raise ValueError(f"tau(d{i} x) moved at {ref}")
            if q < fs.truncation:
                if value(fs.degeneracy(0, ref)) != pi.identity:
                    raise ValueError(f"tau(s0 x) != e at {ref}")
                for i in range(1, q + 1):
                    if value(fs.degeneracy(i, ref)) != value(ref):
                        raise ValueError(f"tau(s{i} x) moved at {ref}")
    if fs.truncation >= 1:
        for v in fs.cells[0]:
            if value(fs.degeneracy(0, nondeg(v))) != pi.identity:
                raise ValueError(f"tau(s0 {v}) != e")


def reference_naturality(ph, twist: GroupTwist) -> None:
    """One classifying map per fixed complex, compared along every orbit
    morphism."""
    cat = ph.cat
    trunc = ph.complexes[cat.subgroups[0].key].truncation
    wbar = classifying_complex(
        SimplicialFiniteGroup.constant(twist.pi, trunc), trunc)
    maps = {s.key: classifying_map(ph.complexes[s.key], twist, wbar)
            for s in cat.subgroups}
    for m in cat.all_morphisms():
        for cid, ref in ph.maps[m.key].values.items():
            if maps[m.src.key].apply(ref) != maps[m.tgt.key].values[cid]:
                raise ValueError(f"classifying maps disagree along {m.key}")


def reference_local_system_check(system: CoefficientSystem,
                                 pi: FiniteGroup, phi: dict) -> None:
    def act(skey: str, u: str) -> AbHom:
        return phi[(skey, u)]
    cat = system.cat
    for s in cat.subgroups:
        val = system.values[s.key]
        if not act(s.key, pi.identity).equal_as_maps(AbHom.identity(val)):
            raise ValueError(f"identity of pi acts nontrivially at {s.key}")
        for u in pi.names:
            h = act(s.key, u)
            if h.source is not val or h.target is not val:
                raise ValueError(f"action at {s.key} has wrong endpoints")
            for v in pi.names:
                lhs = act(s.key, u).compose(act(s.key, v))
                if not lhs.equal_as_maps(act(s.key, pi.mul(u, v))):
                    raise ValueError(
                        f"action at {s.key} is not a homomorphism")
        for u in pi.names:
            comp = act(s.key, u).compose(act(s.key, pi.inv(u)))
            if not comp.equal_as_maps(AbHom.identity(val)):
                raise ValueError(f"{u} does not act invertibly at {s.key}")
    for m in cat.all_morphisms():
        res = system.maps[m.key]
        for u in pi.names:
            lhs = act(m.src.key, u).compose(res)
            rhs = res.compose(act(m.tgt.key, u))
            if not lhs.equal_as_maps(rhs):
                raise ValueError(
                    f"action fails to commute with restriction at {m.key}")


# the assembly and the reduction before they were hoisted ---------------
# `IntMatrix.from_blocks` slicing the target rows of every block,
# `assemble_hom` building a list of placed blocks first, the coboundary
# resolving its faces and finding each orbit morphism by element name,
# and `ReducedComplex` with its pivot search and cancellation in
# closures over every degree's tables.  The package must give the same
# matrices, and the same cancellations in the same order.

def reference_from_blocks(nrows: int, ncols: int, placed) -> IntMatrix:
    out = [{} for _ in range(nrows)]
    for r, c, a in placed:
        if r + a.nrows > nrows or c + a.ncols > ncols:
            raise ValueError("block does not fit")
        for dst, row in zip(out[r:r + a.nrows], a.sparse):
            for j, x in row.items():
                j += c
                y = dst.get(j)
                if y is None:
                    dst[j] = x
                elif y := y + x:
                    dst[j] = y
                else:
                    del dst[j]
    return IntMatrix._of_sparse(tuple(out), ncols)


def reference_assemble_hom(source, target, blocks) -> AbHom:
    placed = []
    for (ti, sj), b in blocks:
        if b.nrows != target.summands[ti].ngens or \
                b.ncols != source.summands[sj].ngens:
            raise ValueError("block shape mismatch")
        placed.append((target.offsets[ti], source.offsets[sj], b))
    mat = reference_from_blocks(target.ngens, source.ngens, placed)
    return AbHom(source, target, mat, check=False)


def reference_twisted_coboundary(ec: EquivariantCochains, provider,
                                 n: int) -> AbHom:
    space, cat, maps = ec.gx.space, ec.cat, ec.system.maps
    where = {cid: (j, o.transporters[cid])
             for j, o in enumerate(ec.orbits[n]) for cid in o.members}
    lower = [cat.by_key[o.stab_key] for o in ec.orbits[n]]
    negated = {}
    blocks = []
    for xi, ox in enumerate(ec.orbits[n + 1]):
        hkey = ox.stab_key
        h = cat.by_key[hkey]
        for i, f in enumerate(space.face_table[ox.rep]):
            if f.word:
                continue
            j, g = where[f.base]
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
    return reference_assemble_hom(ec.groups[n], ec.groups[n + 1], blocks)


class ReferenceReducedComplex:
    __slots__ = ("rels", "diffs", "_kept", "_steps", "_ngens")

    def __init__(self, groups, diffs):
        layouts = [_layout(g) for g in groups]
        alive = [[True] * len(parts) for parts, _ in layouts]
        starts = [{o: j for j, (o, sg) in enumerate(zip(offs, parts))
                   if sg.ngens} for parts, offs in layouts]
        rows = [None if d is None else [dict(r) for r in d.matrix.sparse]
                for d in diffs]
        cols = [None if r is None else _column_index(r, d.source.ngens)
                for r, d in zip(rows, diffs)]
        steps = [[] for _ in groups]

        def pivot(n, s):
            parts, offs = layouts[n + 1]
            r0, k = offs[s], parts[s].ngens
            best = None
            for c, x in rows[n][r0].items():
                t = starts[n].get(c)
                if x not in (1, -1) or t is None or not alive[n][t]:
                    continue
                tg = layouts[n][0][t]
                if tg is not parts[s] and tg.rels != parts[s].rels:
                    continue
                if k > 1 and any(
                        {j: y for j, y in rows[n][r0 + i].items()
                         if c <= j < c + k} != {c + i: x}
                        for i in range(k)):
                    continue
                key = (len(cols[n][c]), c)
                if best is None or key < best[0]:
                    best = (key, t, x)
            return best and best[1:]

        def cancel(n, s, t, eps):
            r0 = layouts[n + 1][1][s]
            c0 = layouts[n][1][t]
            k = layouts[n][0][t].ngens
            mat, index = rows[n], cols[n]
            for i in range(k):
                piv = mat[r0 + i]
                for r in list(index[c0 + i]):
                    if not r0 <= r < r0 + k:
                        _add_row(mat, index, r, piv, -eps * mat[r][c0 + i])
            b = []
            for i in range(k):
                piv = mat[r0 + i]
                for c in piv:
                    index[c].discard(r0 + i)
                del piv[c0 + i]
                b.append(piv)
                mat[r0 + i] = {}
            steps[n].append((c0, eps, b))
            if n >= 1 and rows[n - 1] is not None:
                _drop_rows(rows[n - 1], cols[n - 1], range(c0, c0 + k))
            if n + 1 < len(rows) and rows[n + 1] is not None:
                _drop_cols(rows[n + 1], cols[n + 1], range(r0, r0 + k))
            alive[n + 1][s] = alive[n][t] = False

        for n, d in enumerate(diffs):
            if d is None:
                continue
            found = True
            while found:
                found = False
                for s, sg in enumerate(layouts[n + 1][0]):
                    if alive[n + 1][s] and sg.ngens:
                        piv = pivot(n, s)
                        if piv:
                            cancel(n, s, *piv)
                            found = True

        self.rels, self._kept = [], []
        for (parts, offs), live in zip(layouts, alive):
            keep = [j for j, on in enumerate(live) if on]
            self.rels.append(IntMatrix.block_diag([parts[j].rels
                                                   for j in keep]))
            self._kept.append([c for j in keep
                               for c in range(offs[j],
                                              offs[j] + parts[j].ngens)])
        moduli = {sg: _modulus(sg)
                  for sg in {sg for parts, _ in layouts for sg in parts}}
        mods = [[moduli[sg] for sg in parts for _ in range(sg.ngens)]
                for parts, _ in layouts]
        self.diffs = []
        for n, d in enumerate(diffs):
            if d is None:
                self.diffs.append(None)
                continue
            new = {c: j for j, c in enumerate(self._kept[n])}
            mat = tuple(_residues({new[c]: x for c, x in rows[n][r].items()},
                                  mods[n + 1][r])
                        for r in self._kept[n + 1])
            self.diffs.append(IntMatrix._of_sparse(mat, len(new)))
        self._steps = steps
        self._ngens = [g.ngens for g in groups]

    def include(self, n: int, x) -> tuple[int, ...]:
        vec = {c: v for c, v in zip(self._kept[n], x) if v}
        for c0, eps, b in reversed(self._steps[n]):
            for i, bi in enumerate(b):
                y = -eps * sum([v * vec.get(c, 0) for c, v in bi.items()])
                if y:
                    vec[c0 + i] = y
        return tuple([vec.get(c, 0) for c in range(self._ngens[n])])
