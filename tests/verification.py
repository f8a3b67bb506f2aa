"""Textbook facts checked against the package.

The package computes both sides of Cartan's comparison and nothing
more.  The constructions here check that its simplicial machinery
agrees with two classical facts, and no command or library computation
calls them:

- the total complex of a simplicial group G, the product G x W-bar G
  twisted by the top coordinate, is contractible through explicit
  operators h_m that satisfy the simplicial-homotopy identities, and
  those operators commute with the maps of a coefficient system;
- maps from a complex into the cocycle model K(A, n) are the same
  thing as normalized n-cocycles with values in A (Eilenberg-MacLane):
  a map f corresponds to the cochain sending an n-simplex x to the
  value of f(x) on the full vertex set, and a cochain c to the map
  with f(y)(alpha) = c(y restricted along alpha).

Beside them live the plain product of complexes, the projections of a
paired complex, and the cylinder with its end inclusions and its
projection, which the simplicial tests check by hand.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Sequence

from eqtwist.abgroups import AbHom
from eqtwist.cartan import OGSimplicialAb, SimplicialAb, element_preimage
from eqtwist.classifying import (SimplicialFiniteGroup, classifying_complex,
                                 classifying_deg, classifying_face)
from eqtwist.em import CocycleModel
from eqtwist.groups import FiniteGroup, OrbitCategory
from eqtwist.simplicial import (FiniteSimplicialSet, Materialized,
                                PairedComplex, SimplexRef, SimplicialMap,
                                cylinder, materialize_complex, nondeg)


# complexes and maps --------------------------------------------------

def el_of_ref(mat: Materialized, deg: Callable, ref: SimplexRef):
    """The element a reference of a materialized complex stands for;
    deg(j, q, el) is the degeneracy the complex was built with."""
    el = mat.el_of_id[ref.base]
    d = mat.complex.dim_of(ref.base)
    for j in reversed(ref.word):
        el = deg(j, d, el)
        d += 1
    return el


def apply_monotone(fs: FiniteSimplicialSet, alpha: Sequence[int],
                   ref: SimplexRef) -> SimplexRef:
    """Operator induced by a monotone map alpha: [len-1] -> [dim of ref].

    Missing values act as faces taken top down, repeated values as
    degeneracies taken bottom up.
    """
    q = fs.dim_of_ref(ref)
    if any(alpha[k] > alpha[k + 1] for k in range(len(alpha) - 1)):
        raise ValueError("map is not monotone")
    if alpha and (alpha[0] < 0 or alpha[-1] > q):
        raise ValueError("map exceeds the simplex dimension")
    image = set(alpha)
    out = ref
    for v in sorted((v for v in range(q + 1) if v not in image), reverse=True):
        out = fs.face(v, out)
    for j in (k for k in range(len(alpha) - 1) if alpha[k] == alpha[k + 1]):
        out = fs.degeneracy(j, out)
    return out


def product(x: FiniteSimplicialSet, y: FiniteSimplicialSet,
            truncation: int | None = None) -> PairedComplex:
    trunc = x.truncation + y.truncation if truncation is None else truncation
    return PairedComplex(x, y, trunc)


def projection_right(pc: PairedComplex) -> SimplicialMap:
    vals = {cid: pair[1] for cid, pair in pc.pair_of.items()}
    return SimplicialMap(pc.complex, pc.right, vals)


def projection_left(pc: PairedComplex) -> SimplicialMap:
    # simplicial only when there is no twist
    vals = {cid: pair[0] for cid, pair in pc.pair_of.items()}
    return SimplicialMap(pc.complex, pc.left, vals)


def cylinder_with_ends(x: FiniteSimplicialSet, truncation: int | None = None) \
        -> tuple[PairedComplex, SimplicialMap, SimplicialMap, SimplicialMap]:
    """x times the interval, with the two end inclusions and the
    projection."""
    pc = cylinder(x, truncation)
    ends = []
    for vertex in ("0", "1"):
        vals = {}
        for q, ids in x.cells.items():
            vword = tuple(range(q - 1, -1, -1))
            for cid in ids:
                vals[cid] = pc.ref_of_pair(nondeg(cid),
                                           SimplexRef(vword, vertex))
        ends.append(SimplicialMap(x, pc.complex, vals, check=False))
    return pc, ends[0], ends[1], projection_left(pc)


# the total complex and its contraction -------------------------------

def face_iter(sg: SimplicialFiniteGroup, i: int, q: int, name: str,
              times: int) -> str:
    # d_i applied repeatedly, dropping one level each time
    for k in range(times):
        name = sg.face(i, q - k, name)
    return name


def classifying_twist(sg: SimplicialFiniteGroup, wbar: Materialized):
    """The top-coordinate twisting function on the classifying complex."""
    def tau(ref: SimplexRef) -> str:
        t = el_of_ref(wbar, functools.partial(classifying_deg, sg), ref)
        if not t:
            raise ValueError("no twist on a vertex")
        return t[0]
    return tau


def group_complex(sg: SimplicialFiniteGroup,
                  truncation: int | None = None) -> Materialized:
    """The underlying simplicial set of the simplicial group."""
    trunc = sg.truncation if truncation is None else truncation
    return materialize_complex(
        trunc, lambda q: list(sg.levels[q].names),
        lambda i, q, name: sg.face(i, q, name),
        lambda j, q, name: sg.deg(j, q, name),
        lambda q, name: f"g{q}[{name}]")


def total_complex(sg: SimplicialFiniteGroup,
                  truncation: int | None = None) \
        -> tuple[PairedComplex, Materialized, Materialized]:
    """Group times classifying complex, twisted by the top coordinate."""
    trunc = sg.truncation if truncation is None else truncation
    fiber = group_complex(sg, trunc)
    base = classifying_complex(sg, trunc)
    tau = classifying_twist(sg, base)

    def act(gname, ref):
        q = fiber.complex.dim_of_ref(ref)
        el = el_of_ref(fiber, sg.deg, ref)
        return fiber.ref_of(q, sg.levels[q].mul(gname, el))

    pc = PairedComplex(fiber.complex, base.complex, trunc, twist=tau, act=act)
    return pc, fiber, base


def total_face(sg: SimplicialFiniteGroup, i: int, q: int,
               t: tuple[str, ...]) -> tuple[str, ...]:
    """Face of a flat tuple (x_q, ..., x_0), fiber coordinate first."""
    if i == 0:
        head = sg.levels[q - 1].mul(t[1], sg.face(0, q, t[0]))
        return (head,) + t[2:]
    return (sg.face(i, q, t[0]),) + classifying_face(sg, i, q, t[1:])


def total_deg(sg: SimplicialFiniteGroup, j: int, q: int,
              t: tuple[str, ...]) -> tuple[str, ...]:
    return (sg.deg(j, q, t[0]),) + classifying_deg(sg, j, q, t[1:])


def total_elements(sg: SimplicialFiniteGroup, q: int) -> list[tuple[str, ...]]:
    pools = [sg.levels[q - k].names for k in range(q + 1)]
    return [tuple(t) for t in itertools.product(*pools)]


def basepoint_tuple(sg: SimplicialFiniteGroup, q: int) -> tuple[str, ...]:
    return tuple(sg.levels[q - k].identity for k in range(q + 1))


def contraction(sg: SimplicialFiniteGroup, m: int, q: int,
                t: tuple[str, ...]) -> tuple[str, ...]:
    """Operator h_m from dimension q to q+1 on the total complex, 0 <= m <= q.

    Writing t = (x_q, ..., x_0) and i = q - m, the image keeps
    x_{i-1}, ..., x_0, collapses everything above level i into the
    single product x_i * d_0 x_{i+1} * ... * d_0^{q-i} x_q, and pads
    the levels above with identities.
    """
    i = q - m
    xs = list(reversed(t))  # xs[k] = x_k at level k
    acc = xs[i]
    for mm in range(i + 1, q + 1):
        acc = sg.levels[i].mul(acc, face_iter(sg, 0, q=mm, name=xs[mm],
                                              times=mm - i))
    top = [sg.levels[lvl].identity for lvl in range(q + 1, i, -1)]
    return tuple(top) + (acc,) + tuple(reversed(xs[:i]))


def contraction_identities(sg: SimplicialFiniteGroup, qmax: int) -> None:
    """Verify the simplicial-homotopy identity family for the contraction.

    Raises on the first failure.  sg must carry levels up to qmax + 2,
    since the degeneracy identities pass through dimension qmax + 2.
    """
    for q in range(qmax + 1):
        for t in total_elements(sg, q):
            hs = [contraction(sg, m, q, t) for m in range(q + 1)]
            if total_face(sg, 0, q + 1, hs[0]) != t:
                raise ValueError(f"d0 h0 != id at {t}")
            if total_face(sg, q + 1, q + 1, hs[q]) != basepoint_tuple(sg, q):
                raise ValueError(f"d_top h_top is not constant at {t}")
            for m in range(q + 1):
                for i in range(q + 2):
                    if i < m:
                        lhs = total_face(sg, i, q + 1, hs[m])
                        rhs = contraction(sg, m - 1, q - 1,
                                          total_face(sg, i, q, t))
                        if lhs != rhs:
                            raise ValueError(f"d{i} h{m} mismatch at {t}")
                    elif i > m + 1:
                        lhs = total_face(sg, i, q + 1, hs[m])
                        rhs = contraction(sg, m, q - 1,
                                          total_face(sg, i - 1, q, t))
                        if lhs != rhs:
                            raise ValueError(f"d{i} h{m} mismatch at {t}")
            for m in range(q):
                lhs = total_face(sg, m + 1, q + 1, hs[m + 1])
                rhs = total_face(sg, m + 1, q + 1, hs[m])
                if lhs != rhs:
                    raise ValueError(f"adjacent faces differ at h{m} on {t}")
            for m in range(q + 1):
                for j in range(q + 1):
                    lhs = total_deg(sg, j, q + 1, hs[m])
                    if j <= m:
                        rhs = contraction(sg, m + 1, q + 1,
                                          total_deg(sg, j, q, t))
                    else:
                        rhs = contraction(sg, m, q + 1,
                                          total_deg(sg, j - 1, q, t))
                    if lhs != rhs:
                        raise ValueError(f"s{j} h{m} mismatch at {t}")


# the contraction on a theory's kernel terms --------------------------

def element_in_image(h: AbHom, elem) -> bool:
    return element_preimage(h, elem) is not None


def finite_simplicial_group(sab: SimplicialAb) \
        -> tuple[SimplicialFiniteGroup, list[dict]]:
    """Present a levelwise finite simplicial abelian group by tables.

    Returns the named group along with per-level dicts from canonical
    element tuples to names, for transporting homomorphisms into the
    named world.
    """
    levels = []
    name_of = []
    for q in range(sab.top + 1):
        g = sab.levels[q]
        if not g.is_finite:
            raise ValueError("levels must be finite")
        els = g.elements()
        names = ["c" + ",".join(str(a) for a in el) for el in els]
        idx = {el: k for k, el in enumerate(els)}
        table = [[idx[g.add(a, b)] for b in els] for a in els]
        levels.append(FiniteGroup(names, table, check=False))
        name_of.append({el: names[k] for k, el in enumerate(els)})
    face_maps = {}
    for q in range(1, sab.top + 1):
        for i in range(q + 1):
            h = sab.faces[(q, i)]
            face_maps[(q, i)] = {
                name_of[q][el]: name_of[q - 1][h.apply(el)]
                for el in sab.levels[q].elements()}
    deg_maps = {}
    for q in range(sab.top):
        for j in range(q + 1):
            h = sab.degs[(q, j)]
            deg_maps[(q, j)] = {
                name_of[q][el]: name_of[q + 1][h.apply(el)]
                for el in sab.levels[q].elements()}
    return SimplicialFiniteGroup(levels, face_maps, deg_maps), name_of


def contraction_is_natural(cat: OrbitCategory, ogs: OGSimplicialAb,
                           qmax: int) -> None:
    """Check that h_m commutes with the orbit-category maps.

    Raises on the first mismatch; needs levels up to qmax + 1.
    """
    named = {s.key: finite_simplicial_group(ogs.objects[s.key])
             for s in cat.subgroups}
    for m in cat.all_morphisms():
        src, tgt = m.src.key, m.tgt.key
        sg_src, src_names = named[src]
        sg_tgt, tgt_names = named[tgt]
        conv = []
        for q in range(ogs.top + 1):
            h = ogs.maps[m.key][q]
            conv.append({tgt_names[q][el]: src_names[q][h.apply(el)]
                         for el in ogs.objects[tgt].levels[q].elements()})
        for q in range(qmax + 1):
            for t in total_elements(sg_tgt, q):
                mapped_t = tuple(conv[q - j][t[j]] for j in range(q + 1))
                for mm in range(q + 1):
                    a = contraction(sg_tgt, mm, q, t)
                    lhs = tuple(conv[q + 1 - j][a[j]] for j in range(q + 2))
                    rhs = contraction(sg_src, mm, q, mapped_t)
                    if lhs != rhs:
                        raise ValueError(
                            f"h_{mm} is not natural along {m.key} "
                            f"at dimension {q}")


# cochains of a complex <-> maps into the cocycle model ---------------

def cocycle_lift(k: CocycleModel, q: int, vec: Sequence[int]):
    """Canonical coordinates of the cocycle with the given ambient
    generator coordinates, or None if it is not a cocycle."""
    x = k.inclusions[q].preimage(vec)
    return None if x is None else k.levels[q].from_vector(x)


def materialize_cocycles(k: CocycleModel, truncation: int | None = None) \
        -> Materialized:
    """The cocycle model as a bare simplicial set; coefficients must be
    finite."""
    trunc = k.top if truncation is None else truncation
    faces = {(i, q): k.face_hom(i, q)
             for q in range(1, trunc + 1) for i in range(q + 1)}
    degs = {(j, q): k.deg_hom(j, q)
            for q in range(trunc) for j in range(q + 1)}

    def id_of(q, el):
        return f"z{q}[" + ",".join(str(c) for c in el) + "]"

    return materialize_complex(
        trunc, lambda q: k.levels[q].elements(),
        lambda i, q, el: faces[(i, q)].apply(el),
        lambda j, q, el: degs[(j, q)].apply(el),
        id_of)


def map_values_of_cocycle(fs: FiniteSimplicialSet, k: CocycleModel,
                          mat: Materialized, values: dict[str, tuple]) \
        -> dict[str, SimplexRef]:
    """Values on cells of the map to the cocycle model induced by a
    normalized cocycle; elements are canonical coordinates in the
    coefficient group."""
    zero = k.coeff.zero()
    out = {}
    for q in range(fs.truncation + 1):
        for cid in fs.cells[q]:
            coords = []
            for alpha in k.ambient.subsets[q]:
                r = apply_monotone(fs, alpha, nondeg(cid))
                val = zero if r.word else values[r.base]
                coords.extend(k.coeff.to_vector(val))
            el = cocycle_lift(k, q, coords)
            if el is None:
                raise ValueError(f"values do not form a cocycle at {cid!r}")
            out[cid] = mat.ref_of(q, el)
    return out


def cocycle_of_map(fs: FiniteSimplicialSet, k: CocycleModel,
                   mat: Materialized, values: dict[str, SimplexRef]) \
        -> dict[str, tuple]:
    """The cochain underlying a map into the cocycle model: the value
    of f(x) on the full vertex set of an n-simplex x."""
    n = k.n
    out = {}
    for cid in fs.cells.get(n, []):
        el = el_of_ref(mat, lambda j, q, e: k.deg_hom(j, q).apply(e),
                       values[cid])
        amb = k.inclusions[n].apply(el)
        # dimension n has the single subset (0, ..., n)
        assert len(k.ambient.subsets[n]) == 1
        gen_coords = k.ambient.levels[n].to_vector(amb)
        out[cid] = k.coeff.from_vector(gen_coords[: k.coeff.ngens])
    return out
