"""Shared builders for the test suite.

Complexes come from the bundled fixture files so the tests exercise the
same inputs the command line tool ships with; twisted setups are
assembled here because the tests want them in many coefficient
variations.  The planted negative controls of the axiom checks and the
brute-force vertical homotopy search live here too: the tests use them
as references, the package does not.
"""

from eqtwist.abgroups import AbHom, FgAbGroup
from eqtwist.bredon import (EdgePathProvider, EquivariantCochains,
                            GroupTwistProvider, TrivialTwistProvider,
                            twisted_complex, untwisted_complex)
from eqtwist.cartan import (CartanTheory, LiftSystem, OGSimplicialAb,
                            SimplicialAb, cylinder_with_action,
                            element_preimage, kernel_term)
from eqtwist.coefficients import CoefficientSystem, LocalSystem
from eqtwist.edgepaths import EdgeActionSystem, PathChoice
from eqtwist.equivariant import GSimplicialSet, fixed_point_system
from eqtwist.fixtures import fixture_path, load_json
from eqtwist.groups import FiniteGroup, OrbitCategory
from eqtwist.intmat import IntMatrix
from eqtwist.simplicial import FiniteSimplicialSet, SimplexRef, nondeg
from eqtwist.twisting import GroupTwist


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


def constant_setup(gx, coeff: FgAbGroup):
    cat = OrbitCategory(gx.group)
    system = CoefficientSystem.constant(cat, coeff)
    return cat, system


def sign_local_system(system: CoefficientSystem, pi: FiniteGroup,
                      gen_sign: int) -> LocalSystem:
    """The generator of a cyclic pi acts by gen_sign on every value;
    values must be cyclic on one generator."""
    phi = {}
    for s in system.cat.subgroups:
        val = system.values[s.key]
        powers = {pi.identity: AbHom.identity(val)}
        gen = pi.names[1]
        cur, sign = gen, gen_sign
        while cur not in powers:
            powers[cur] = AbHom(val, val, IntMatrix([[sign]], val.ngens))
            cur, sign = pi.mul(cur, gen), sign * gen_sign
        for u, h in powers.items():
            phi[(s.key, u)] = h
    return LocalSystem(system, pi, phi)


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
    return gx, cat, system, TrivialTwistProvider(system)


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
    return gx, cat, system, TrivialTwistProvider(system)


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
    sab = SimplicialAb(levels, faces, degs, check=False)
    objects = {s.key: sab for s in cat.subgroups}
    maps = {m.key: [zh] * (p_max + 1) for m in cat.all_morphisms()}
    term = OGSimplicialAb(cat, objects, maps, check=False)
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
    pc, _i0, _i1, _pr, gcyl = cylinder_with_action(ec.gx)
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
            if i == 0:
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
