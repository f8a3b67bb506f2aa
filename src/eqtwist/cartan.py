"""Cartan-style equivariant cohomology theories and the lift complex.

A theory is a cochain sequence A^0 -> A^1 -> ... of simplicial
coefficient systems: contravariant functors from the orbit category to
simplicial abelian groups, with levelwise differentials and an action
of the coefficient automorphisms on every term.  The canonical model
takes A^i(G/H) to the simplicial cochain groups C(M(G/H), i).

Given a G-space with a twist, the degree-n lift group collects one
element of A^n(G/G_sigma) per cell orbit, constrained so that the
assignment is a simplicial map with the zero face corrected through
the twist.  The theory differentials descend to these subgroups, and
the cohomology of the resulting complex is compared with the Bredon
cohomology of the twist.  Two lifts are vertically homotopic when a
lift on the cylinder restricts to them at the ends; that question is
one integer solve over the same face constraints.  The axiom checks,
the comparison and the homotopy test all run over exact integer
arithmetic; everything is truncated to the declared (i_max, p_max)
window and the reports say so.

Each check runs once per distinct input.  A theory's objects are
immutable, so `check_axioms`, `kernel_term` and `OGSimplicialAb.validate`
evaluate each check or derived object once per tuple of input objects,
told apart with `is`.  Orbits with one coefficient group share their
models and every object built from them, so they cost one orbit's checks.

Axiom 3 reads a term's homotopy by Moore's theorem, as the homology of
its unnormalized complex under the alternating face sum, wherever axiom
1 found the term simplicial.  A canonical term has none; its kernel term
Z^1 keeps the coefficients at pi_1:

>>> cat = OrbitCategory(FiniteGroup.trivial())
>>> z4 = CoefficientSystem.constant(cat, FgAbGroup.cyclic(4))
>>> theory = canonical_theory(cat, z4, 2, 3)
>>> [[g.describe() for g in moore_homotopy(t.objects["e"])]
...  for t in (theory.terms[1], kernel_term(theory, 1))]
[['0', '0', '0'], ['0', 'C4', '0']]
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .abgroups import (AbHom, CochainComplex, DirectSum, FgAbGroup,
                       _hom_subquotient, assemble_hom, cohomology_at,
                       direct_sum, enumerate_automorphisms, factor_each)
from .bredon import EquivariantCochains, twisted_complex
from .coefficients import CoefficientSystem
from .classifying import SimplicialFiniteGroup, contraction, total_elements
from .em import CochainModel, delta_hom
from .equivariant import GSimplicialSet
from .groups import FiniteGroup, OrbitCategory
from .intmat import IntMatrix, solve
from .simplicial import FiniteSimplicialSet, SimplexRef, cylinder, nondeg


def element_preimage(h: AbHom, elem) -> tuple[int, ...] | None:
    """Canonical coordinates of some preimage of a target element, or None."""
    x = h.preimage(h.target.to_vector(elem))
    return None if x is None else h.source.from_vector(x)


def element_in_image(h: AbHom, elem) -> bool:
    return element_preimage(h, elem) is not None


def _once(memo: dict, fn, *args):
    """fn(*args), evaluated on the first call with these arguments and
    read back from memo on every later one.  Arguments are told apart as
    the objects they are: a tuple by its items, an int by its value,
    anything else by `is` (groups, homs and simplicial groups define no
    equality)."""
    key = (fn, *args)
    if key in memo:
        return memo[key]
    out = memo[key] = fn(*args)
    return out


# simplicial abelian groups ------------------------------------------

class SimplicialAb:
    """Simplicial abelian group up to a level bound, as explicit homs;
    `validate`, run by `check_axioms`, checks the identities."""

    def __init__(self, levels: list[FgAbGroup],
                 faces: dict[tuple[int, int], AbHom],
                 degs: dict[tuple[int, int], AbHom]):
        self.levels = list(levels)
        self.faces = faces
        self.degs = degs

    @property
    def top(self) -> int:
        return len(self.levels) - 1

    def validate(self):
        top = self.top
        for q in range(1, top + 1):
            for i in range(q + 1):
                f = self.faces[(q, i)]
                if f.source is not self.levels[q] or \
                        f.target is not self.levels[q - 1]:
                    raise ValueError(f"d{i} at level {q}: wrong endpoints")
        for q in range(top):
            for j in range(q + 1):
                s = self.degs[(q, j)]
                if s.source is not self.levels[q] or \
                        s.target is not self.levels[q + 1]:
                    raise ValueError(f"s{j} at level {q}: wrong endpoints")
        for q in range(2, top + 1):
            for j in range(1, q + 1):
                for i in range(j):
                    lhs = self.faces[(q - 1, i)].compose(self.faces[(q, j)])
                    rhs = self.faces[(q - 1, j - 1)].compose(self.faces[(q, i)])
                    if not lhs.equal_as_maps(rhs):
                        raise ValueError(f"face identity fails at ({q},{i},{j})")
        for q in range(top):
            for j in range(q + 1):
                for i in range(q + 2):
                    lhs = self.faces[(q + 1, i)].compose(self.degs[(q, j)])
                    if i in (j, j + 1):
                        rhs = AbHom.identity(self.levels[q])
                    elif q == 0:
                        continue
                    elif i < j:
                        rhs = self.degs[(q - 1, j - 1)].compose(
                            self.faces[(q, i)])
                    else:
                        rhs = self.degs[(q - 1, j)].compose(
                            self.faces[(q, i - 1)])
                    if not lhs.equal_as_maps(rhs):
                        raise ValueError(
                            f"face/degeneracy identity fails at ({q},{i},{j})")
        for q in range(top - 1):
            for j in range(q + 1):
                for i in range(j + 1):
                    lhs = self.degs[(q + 1, i)].compose(self.degs[(q, j)])
                    rhs = self.degs[(q + 1, j + 1)].compose(self.degs[(q, i)])
                    if not lhs.equal_as_maps(rhs):
                        raise ValueError(
                            f"degeneracy identity fails at ({q},{i},{j})")


def simplicial_ab_of_model(model: CochainModel) -> SimplicialAb:
    faces = {(q, i): model.face_hom(i, q)
             for q in range(1, model.top + 1) for i in range(q + 1)}
    degs = {(q, j): model.deg_hom(j, q)
            for q in range(model.top) for j in range(q + 1)}
    return SimplicialAb(model.levels, faces, degs)


def moore_homotopy(sab: SimplicialAb) -> list[FgAbGroup]:
    """pi_0 .. pi_{top-1}: the homology of A_top -> ... -> A_0 under
    sum_i (-1)^i d_i, one `CochainComplex` with A_top in degree 0.  It
    raises when the faces break the simplicial identities."""
    diffs = []
    for q in range(sab.top, 0, -1):
        boundary = sab.faces[(q, 0)].matrix
        for i in range(1, q + 1):
            face = sab.faces[(q, i)].matrix
            boundary = boundary - face if i % 2 else boundary + face
        diffs.append(AbHom(sab.levels[q], sab.levels[q - 1], boundary,
                           check=False))
    cc = CochainComplex(sab.levels[::-1], diffs)
    return [cc.cohomology(sab.top - n).group for n in range(sab.top)]


def _unsimplicial(src: SimplicialAb, row: Sequence[AbHom],
                  tgt: SimplicialAb) -> list[tuple[str, int, int]]:
    """Where the levelwise maps row: tgt -> src fail to commute with the
    faces and degeneracies, as ("d" or "s", index, level), in order."""
    out = []
    for q in range(1, src.top + 1):
        for i in range(q + 1):
            lhs = src.faces[(q, i)].compose(row[q])
            if not lhs.equal_as_maps(row[q - 1].compose(tgt.faces[(q, i)])):
                out.append(("d", i, q))
    for q in range(src.top):
        for j in range(q + 1):
            lhs = src.degs[(q, j)].compose(row[q])
            if not lhs.equal_as_maps(row[q + 1].compose(tgt.degs[(q, j)])):
                out.append(("s", j, q))
    return out


class OGSimplicialAb:
    """Contravariant functor from the orbit category to SimplicialAb;
    `validate`, run by `check_axioms`, checks functoriality."""

    def __init__(self, cat: OrbitCategory, objects: dict[str, SimplicialAb],
                 maps: dict[str, list[AbHom]]):
        self.cat = cat
        self.objects = objects
        self.maps = maps

    @property
    def top(self) -> int:
        return next(iter(self.objects.values())).top

    def validate(self):
        """Raise at the first failure.  A tuple of maps and objects that
        passed is not checked again where another morphism names it."""
        top = self.top
        passed = set()
        for m in self.cat.all_morphisms():
            row = self.maps[m.key]
            src = self.objects[m.src.key]
            tgt = self.objects[m.tgt.key]
            key = ("map", src, tgt, tuple(row))
            if key in passed:
                continue
            passed.add(key)
            for q in range(top + 1):
                h = row[q]
                if h.source is not tgt.levels[q] or \
                        h.target is not src.levels[q]:
                    raise ValueError(f"map at {m.key} level {q}: endpoints")
            for op, j, q in _unsimplicial(src, row, tgt):
                raise ValueError(
                    f"map at {m.key} not simplicial at {op}{j}, level {q}")
        for s in self.cat.subgroups:
            row = self.maps[self.cat.identity(s.key).key]
            key = ("identity", tuple(row))
            if key in passed:
                continue
            passed.add(key)
            for q in range(top + 1):
                h = row[q]
                if not h.equal_as_maps(AbHom.identity(h.source)):
                    raise ValueError(f"identity of {s.key} is not the identity")
        for f, h in self.cat.composable_pairs():
            first, then = self.maps[h.key], self.maps[f.key]
            comp = self.maps[self.cat.compose(f, h).key]
            key = ("composite", tuple(then), tuple(first), tuple(comp))
            if key in passed:
                continue
            passed.add(key)
            for q in range(top + 1):
                if not then[q].compose(first[q]).equal_as_maps(comp[q]):
                    raise ValueError(
                        f"functoriality fails at {f.key} ; {h.key}, level {q}")


# theories -----------------------------------------------------------

class CartanTheory:
    """A bounded cochain sequence of simplicial coefficient systems.

    terms[i] is the functor A^i; deltas[i][skey][q] is the level-q
    component of delta^i at the orbit named skey; psi(skey, alpha, i, q)
    realizes the action of a coefficient automorphism alpha on the
    level-q part of A^i at that orbit.
    """

    def __init__(self, cat: OrbitCategory, coeffs: CoefficientSystem,
                 terms: list[OGSimplicialAb],
                 deltas: list[dict[str, list[AbHom]]],
                 psi, i_max: int, p_max: int):
        if len(terms) != i_max + 1 or len(deltas) != i_max:
            raise ValueError("term and differential counts must match i_max")
        self.cat = cat
        self.coeffs = coeffs
        self.terms = terms
        self.deltas = deltas
        self.psi = psi
        self.i_max = i_max
        self.p_max = p_max


def canonical_theory(cat: OrbitCategory, coeffs: CoefficientSystem,
                     i_max: int, p_max: int) -> CartanTheory:
    """A^i(G/H) = C(M(G/H), i) with the cochain differential.  Orbits
    whose coefficient group is one object share one model per degree,
    and with it every term object, differential, restriction and psi."""
    memo = {}
    models = {(s.key, i): _once(memo, CochainModel, coeffs.values[s.key], i,
                                p_max)
              for s in cat.subgroups for i in range(i_max + 1)}
    terms = []
    for i in range(i_max + 1):
        objects = {s.key: _once(memo, simplicial_ab_of_model,
                                models[(s.key, i)])
                   for s in cat.subgroups}
        maps = {m.key: _once(memo, _restrictions, models[(m.tgt.key, i)],
                             coeffs.maps[m.key], models[(m.src.key, i)])
                for m in cat.all_morphisms()}
        terms.append(OGSimplicialAb(cat, objects, maps))
    deltas = [{s.key: _once(memo, _differentials, models[(s.key, i)],
                            models[(s.key, i + 1)])
               for s in cat.subgroups}
              for i in range(i_max)]

    def psi(skey, alpha, i, q):
        return _once(memo, CochainModel.postcompose_hom, models[(skey, i)],
                     q, alpha)

    return CartanTheory(cat, coeffs, terms, deltas, psi, i_max, p_max)


def _restrictions(tgt: CochainModel, h: AbHom,
                  src: CochainModel) -> list[AbHom]:
    """h in every coordinate, level by level, from tgt's levels to src's."""
    return [tgt.postcompose_hom(q, h, src) for q in range(tgt.top + 1)]


def _differentials(lower: CochainModel, upper: CochainModel) -> list[AbHom]:
    return [delta_hom(lower, upper, q) for q in range(lower.top + 1)]


def kernel_term(theory: CartanTheory, n: int) -> OGSimplicialAb:
    """The functor Z^n = ker(delta^n), with stored level inclusions.

    Orbits that share their term object and differential share their
    kernel object, and morphisms that share their maps share the maps
    between kernels."""
    if n >= theory.i_max:
        raise ValueError("kernel term needs the next differential")
    cat = theory.cat
    term = theory.terms[n]
    memo = {}
    objects = {}
    incls = {}
    for s in cat.subgroups:
        objects[s.key], incls[s.key] = _once(
            memo, _kernel_object, term.objects[s.key],
            tuple(theory.deltas[n][s.key]))
    maps = {m.key: _once(memo, _factored, tuple(term.maps[m.key]),
                         incls[m.tgt.key], incls[m.src.key])
            for m in cat.all_morphisms()}
    out = OGSimplicialAb(cat, objects, maps)
    out.inclusions = incls
    return out


def _kernel_object(amb: SimplicialAb, ds: Sequence[AbHom]) \
        -> tuple[SimplicialAb, Sequence[AbHom]]:
    """The simplicial subgroup of amb cut out by the kernels of ds, with
    its level inclusions."""
    subs = []
    inc = []
    for d in ds:
        sub, i0 = d.kernel()
        subs.append(sub)
        inc.append(i0)
    # every face and degeneracy into level k factors through inc[k], by
    # one solve per level: into[k] holds (table, key, map to factor)
    faces, degs = {}, {}
    into = [[] for _ in ds]
    for q in range(1, len(ds)):
        for i in range(q + 1):
            into[q - 1].append(
                (faces, (q, i), amb.faces[(q, i)].compose(inc[q])))
    for q in range(len(ds) - 1):
        for j in range(q + 1):
            into[q + 1].append(
                (degs, (q, j), amb.degs[(q, j)].compose(inc[q])))
    for k, entries in enumerate(into):
        factored = factor_each([h for _, _, h in entries], inc[k])
        for (table, key, _), h in zip(entries, factored):
            table[key] = h
    return SimplicialAb(subs, faces, degs), tuple(inc)


def _factored(row: Sequence[AbHom], tgt_inc: Sequence[AbHom],
              src_inc: Sequence[AbHom]) -> list[AbHom]:
    """Each map of row, restricted to tgt_inc and factored through src_inc."""
    return [h.compose(t).factor_through(s)
            for h, t, s in zip(row, tgt_inc, src_inc)]


# axiom checking -----------------------------------------------------

class AxiomReport:
    """Per-axiom verdicts with failure witnesses and informational notes."""

    AXIOMS = (1, 2, 3, 4, 5)

    def __init__(self, i_max: int, p_max: int):
        self.i_max = i_max
        self.p_max = p_max
        self.failures = {a: [] for a in self.AXIOMS}
        self.info = {a: [] for a in self.AXIOMS}

    def ok(self, axiom: int) -> bool:
        return not self.failures[axiom]

    @property
    def all_ok(self) -> bool:
        return all(self.ok(a) for a in self.AXIOMS)

    def lines(self) -> list[str]:
        out = [f"checked within bounds i_max={self.i_max}, p_max={self.p_max}"]
        for a in self.AXIOMS:
            out.append(f"axiom {a}: " + ("pass" if self.ok(a) else "fail"))
            for msg in self.failures[a]:
                out.append(f"  {msg}")
            for msg in self.info[a]:
                out.append(f"  note: {msg}")
        return out


def check_axioms(theory: CartanTheory) -> AxiomReport:
    """Check the five axioms within the theory's bounds, each check once
    per distinct tuple of input objects; its verdict is reported under
    every orbit, morphism and level that names that tuple, in loop order.
    """
    rep = AxiomReport(theory.i_max, theory.p_max)
    cat = theory.cat
    memo = {}
    # the theory's level lists as tuples, which can key the memo
    deltas = [{k: tuple(v) for k, v in dd.items()} for dd in theory.deltas]
    maps = [{k: tuple(v) for k, v in t.maps.items()} for t in theory.terms]

    # axiom 1: a cochain sequence of simplicial coefficient systems.
    # Only the additive and differential structure is checked; no
    # product is modelled.
    for i, term in enumerate(theory.terms):
        for obj in [term.objects[s.key] for s in cat.subgroups] + [term]:
            msg = _once(memo, _first_failure, obj)
            if msg is not None:
                rep.failures[1].append(f"A^{i}: {msg}")
                break
    for i in range(theory.i_max):
        lower, upper = theory.terms[i], theory.terms[i + 1]
        for s in cat.subgroups:
            for fault in _once(memo, _delta_faults, lower.objects[s.key],
                               deltas[i][s.key], upper.objects[s.key]):
                rep.failures[1].append(f"delta^{i} at {s.key}{fault}")
        for m in cat.all_morphisms():
            for q in _once(memo, _failing_levels, maps[i + 1][m.key],
                           deltas[i][m.tgt.key], deltas[i][m.src.key],
                           maps[i][m.key]):
                rep.failures[1].append(
                    f"delta^{i} not natural along {m.key} at level {q}")
    # (degree, orbit, level) of every delta^{i+1} o delta^i != 0
    not_complex = set()
    for i in range(theory.i_max - 1):
        for s in cat.subgroups:
            for q in _once(memo, _nonzero_squares, deltas[i + 1][s.key],
                           deltas[i][s.key]):
                not_complex.add((i + 1, s.key, q))
                rep.failures[1].append(
                    f"delta.delta != 0 at {s.key}, degree {i}, level {q}")
    rep.info[1].append("multiplicative structure not modelled")

    # axiom 2: exactness at the interior degrees where axiom 1 found a
    # complex; axiom 1 composed those squares, so they are not redone.
    for d in range(1, theory.i_max):
        for s in cat.subgroups:
            for q in range(theory.p_max + 1):
                if (d, s.key, q) in not_complex:
                    rep.info[2].append(
                        f"not a complex at degree {d}, {s.key}, level {q}; "
                        f"exactness not checked there")
                    continue
                h = _once(memo, _hom_subquotient,
                          theory.terms[d].objects[s.key].levels[q],
                          deltas[d - 1][s.key][q], deltas[d][s.key][q]).group
                if not h.is_trivial:
                    rep.failures[2].append(
                        f"cohomology {h.describe()} at degree {d}, "
                        f"{s.key}, level {q}")
    if theory.i_max < 2:
        rep.info[2].append("no interior degrees at this truncation")
    rep.info[2].append("degree 0 read as defining Z^0, not checked")

    # axiom 3: each term is homotopically trivial, where axiom 1 found
    # it simplicial; elsewhere its faces make no complex.
    for i in range(theory.i_max + 1):
        for s in cat.subgroups:
            sab = theory.terms[i].objects[s.key]
            if _once(memo, _first_failure, sab) is not None:
                rep.info[3].append(f"A^{i}({s.key}) is not simplicial; "
                                   "homotopy not checked there")
                continue
            for nn, g in enumerate(_once(memo, moore_homotopy, sab)):
                if not g.is_trivial:
                    rep.failures[3].append(
                        f"pi_{nn} of A^{i}({s.key}) = {g.describe()}")

    # axiom 4: Z^0 is simplicially trivial and recovers the coefficients.
    try:
        z0 = kernel_term(theory, 0)
    except ValueError as ex:
        rep.failures[4].append(str(ex))
        z0 = None
    if z0 is not None:
        for s in cat.subgroups:
            obj = z0.objects[s.key]
            for op, j, q in _once(memo, _non_isos, obj):
                rep.failures[4].append(
                    f"Z^0({s.key}): {op}{j} at level {q} is not an iso")
            want = theory.coeffs.values[s.key]
            if obj.levels[0].normal_form() != want.normal_form():
                rep.failures[4].append(
                    f"(Z^0)_0({s.key}) = {obj.levels[0].describe()}, "
                    f"declared {want.describe()}")

    # axiom 5: the automorphism action is simplicial, commutes with the
    # differential, and is natural over the orbit category.
    auts = {}
    for s in cat.subgroups:
        mgrp = theory.coeffs.values[s.key]
        found = _once(memo, enumerate_automorphisms, mgrp)
        if found is None:
            rep.info[5].append(
                f"automorphisms of {mgrp.describe()} not enumerable; "
                "identity only")
            found = [_once(memo, AbHom.identity, mgrp)]
        auts[s.key] = found
    terms = range(theory.i_max + 1)
    levels = range(theory.p_max + 1)

    psi = theory.psi

    def psi_rows(skey, a):
        return [tuple([psi(skey, a, i, q) for q in levels]) for i in terms]

    # psi(skey, a, i, q) of every automorphism a, built once: psis[skey]
    # holds them in the order of auts[skey], as one row of levels per i
    psis = {skey: [psi_rows(skey, a) for a in skey_auts]
            for skey, skey_auts in auts.items()}
    for s in cat.subgroups:
        skey = s.key
        iden = psi_rows(
            skey, _once(memo, AbHom.identity, theory.coeffs.values[skey]))
        for i in terms:
            for q in _once(memo, _non_identities, iden[i],
                           theory.terms[i].objects[skey]):
                rep.failures[5].append(
                    f"psi(id) at {skey}, A^{i}, level {q} is not id")
        pairs = itertools.product(zip(auts[skey], psis[skey]), repeat=2)
        for (a, psi_a), (b, psi_b) in pairs:
            psi_ab = psi_rows(skey, _once(memo, AbHom.compose, a, b))
            for i in terms:
                for q in _once(memo, _non_composites, psi_ab[i], psi_a[i],
                               psi_b[i]):
                    rep.failures[5].append(
                        f"psi not multiplicative at {skey}, A^{i}, "
                        f"level {q}")
        for psi_a in psis[skey]:
            for i in terms:
                obj = theory.terms[i].objects[skey]
                for op, j, q in _once(memo, _unsimplicial, obj, psi_a[i], obj):
                    rep.failures[5].append(
                        f"psi at {skey}, A^{i} misses {op}{j} at level {q}")
            for i in range(theory.i_max):
                ds = deltas[i][skey]
                for q in _once(memo, _failing_levels, ds, psi_a[i],
                               psi_a[i + 1], ds):
                    rep.failures[5].append(
                        f"psi at {skey} does not commute with delta^{i} "
                        f"at level {q}")
    for m in cat.all_morphisms():
        src, tgt = m.src.key, m.tgt.key
        res = theory.coeffs.maps[m.key]
        for a, psi_a in zip(auts[src], psis[src]):
            for b, psi_b in zip(auts[tgt], psis[tgt]):
                if _once(memo, _failing_levels, (a,), (res,), (res,), (b,)):
                    continue
                for i in terms:
                    row = maps[i][m.key]
                    for q in _once(memo, _failing_levels, psi_a[i], row, row,
                                   psi_b[i]):
                        rep.failures[5].append(
                            f"psi not natural along {m.key} at A^{i}, "
                            f"level {q}")
    return rep


# the checks of check_axioms, as functions of the objects they read;
# each returns what fails, in the order the report lists it

def _first_failure(obj) -> str | None:
    """The message of the first failure obj.validate() raises, or None."""
    try:
        obj.validate()
    except ValueError as ex:
        return str(ex)
    return None


def _failing_levels(outer: Sequence[AbHom], inner: Sequence[AbHom],
                    outer2: Sequence[AbHom],
                    inner2: Sequence[AbHom]) -> list[int]:
    """The levels q with outer[q] o inner[q] != outer2[q] o inner2[q]."""
    return [q for q in range(len(outer))
            if not outer[q].compose(inner[q]).equal_as_maps(
                outer2[q].compose(inner2[q]))]


def _delta_faults(lower: SimplicialAb, ds: Sequence[AbHom],
                  upper: SimplicialAb) -> list[str]:
    """How the levelwise differential ds: lower -> upper fails to be a
    simplicial map, as report message endings."""
    out = [f" level {q}: wrong endpoints" for q, d in enumerate(ds)
           if d.source is not lower.levels[q] or
           d.target is not upper.levels[q]]
    out += [f" misses {op}{j} at level {q}"
            for op, j, q in _unsimplicial(upper, ds, lower)]
    return out


def _nonzero_squares(upper: Sequence[AbHom],
                     lower: Sequence[AbHom]) -> list[int]:
    """The levels q with upper[q] o lower[q] != 0."""
    return [q for q in range(len(upper))
            if not upper[q].compose(lower[q]).is_zero_map]


def _non_isos(sab: SimplicialAb) -> list[tuple[str, int, int]]:
    """The faces, then the degeneracies, of sab that are not isos."""
    out = [("d", i, q) for q in range(1, sab.top + 1) for i in range(q + 1)
           if not sab.faces[(q, i)].is_iso()]
    return out + [("s", j, q) for q in range(sab.top) for j in range(q + 1)
                  if not sab.degs[(q, j)].is_iso()]


def _non_identities(row: Sequence[AbHom], sab: SimplicialAb) -> list[int]:
    """The levels q at which row[q] is not the identity of sab's level."""
    return [q for q, h in enumerate(row)
            if not h.equal_as_maps(AbHom.identity(sab.levels[q]))]


def _non_composites(row: Sequence[AbHom], outer: Sequence[AbHom],
                    inner: Sequence[AbHom]) -> list[int]:
    """The levels q with row[q] != outer[q] o inner[q]."""
    return [q for q in range(len(row))
            if not row[q].equal_as_maps(outer[q].compose(inner[q]))]


# lift groups --------------------------------------------------------

class LiftCells:
    """The unknowns of a lift on a G-space and its face constraints.

    There is one unknown per orbit of nondegenerate cells of dimension
    at most top, valued at the level of its cell in the term at its
    orbit type; every member cell is read off its orbit representative
    through the orbit-category map of its transporter.
    """

    def __init__(self, space: FiniteSimplicialSet, cat: OrbitCategory,
                 orbits: dict, top: int):
        self.space = space
        self.cat = cat
        self.orbits = []  # (dimension, orbit), one per unknown
        self.index = {}  # member cell -> its unknown
        for q in range(top + 1):
            for o in orbits[q]:
                for cid in o.members:
                    self.index[cid] = len(self.orbits)
                self.orbits.append((q, o))

    def ambient(self, term: OGSimplicialAb) -> DirectSum:
        """The direct sum of the unknowns' groups, in unknown order."""
        return direct_sum([term.objects[o.stab_key].levels[q]
                           for q, o in self.orbits])

    def evaluation(self, term: OGSimplicialAb, hkey: str,
                   ref: SimplexRef) -> tuple[int, AbHom]:
        """Unknown and hom evaluating an assignment on a reference over
        G/hkey."""
        vi = self.index[ref.base]
        q, orb = self.orbits[vi]
        m = self.cat.coset_morphism(self.cat.by_key[hkey],
                                    self.cat.by_key[orb.stab_key],
                                    orb.transporters[ref.base])
        hom = term.maps[m.key][q]
        obj = term.objects[hkey]
        for lvl, jj in enumerate(reversed(ref.word), q):
            hom = obj.degs[(lvl, jj)].compose(hom)
        return vi, hom

    def face_constraints(self, source: DirectSum, term: OGSimplicialAb,
                         twist, rows=None) -> AbHom:
        """The face laws of an assignment, as one hom out of the ambient
        sum `source` of term whose kernel is the lifts.

        Each unknown x of dimension q >= 1 (restricted to `rows` when
        given) contributes q + 1 target summands: its value at the face
        d_i x minus d_i of its own value, where d_0 is followed by
        twist(orbit type, x, q - 1), an endomorphism of that level; a
        twist of None leaves d_0 as it is.
        """
        blocks = []
        tgroups = []
        for vi, (q, o) in enumerate(self.orbits):
            if q == 0 or (rows is not None and vi not in rows):
                continue
            hkey = o.stab_key
            obj = term.objects[hkey]
            xref = nondeg(o.rep)
            for i in range(q + 1):
                face = obj.faces[(q, i)]
                if i == 0 and twist is not None:
                    face = twist(hkey, o.rep, q - 1).compose(face)
                ti = len(tgroups)
                tgroups.append(obj.levels[q - 1])
                blocks.append(((ti, vi), -face.matrix))
                col, hom = self.evaluation(term, hkey,
                                           self.space.face(i, xref))
                blocks.append(((ti, col), hom.matrix))
        return assemble_hom(source, direct_sum(tgroups), blocks)


class LiftSystem:
    """The groups of lifts A_phi^n(X; tau) with their differentials.

    The degree-n group stores one element of A^n(G/G_sigma) at the
    level of sigma, per orbit of nondegenerate cells; membership is cut
    out by the face constraints of a simplicial map into the twisted
    target, with the zero face corrected through psi(phi(tau)), or left
    as it is by a provider of None.  The theory differentials act
    blockwise and descend to the cut-out subgroups.
    """

    def __init__(self, ec: EquivariantCochains, theory: CartanTheory,
                 provider, nmax: int):
        if theory.coeffs is not ec.system:
            raise ValueError("theory and cochains disagree on coefficients")
        if nmax > theory.i_max:
            raise ValueError("degree bound exceeds the theory truncation")
        self.ec = ec
        self.theory = theory
        self.provider = provider
        self.nmax = nmax
        self.cells = LiftCells(ec.gx.space, ec.cat, ec.orbits,
                               min(ec.gx.space.dimension, ec.nmax,
                                   theory.p_max))
        self.ambient = {}
        self.groups = {}
        self.inclusions = {}
        for n in range(nmax + 1):
            amb = self.ambient[n] = self.cells.ambient(theory.terms[n])
            twist = None
            if provider is not None:
                def twist(hkey, rep, lvl):
                    return theory.psi(hkey,
                                      provider.phi_hom(hkey, nondeg(rep)),
                                      n, lvl)

            laws = self.cells.face_constraints(amb, theory.terms[n], twist)
            self.groups[n], self.inclusions[n] = laws.kernel()
        self.diffs = {}
        for n in range(nmax):
            self.diffs[n] = self._descend_delta(n)
        self._cylinders = {}

    def cylinder_laws(self, n: int) -> "_CylinderLaws":
        """The degree-n cylinder laws of `vertical_homotopy`, built once."""
        if n not in self._cylinders:
            self._cylinders[n] = _CylinderLaws(self, n)
        return self._cylinders[n]

    def _descend_delta(self, n: int) -> AbHom:
        blocks = [((vi, vi), self.theory.deltas[n][o.stab_key][q].matrix)
                  for vi, (q, o) in enumerate(self.cells.orbits)]
        big = assemble_hom(self.ambient[n], self.ambient[n + 1], blocks)
        return big.compose(self.inclusions[n]).factor_through(
            self.inclusions[n + 1])

    def cohomology(self, n: int):
        return cohomology_at(self.groups[n], self.diffs.get(n - 1),
                             self.diffs.get(n))

    def var_value(self, n: int, elem, vi: int) -> tuple[int, ...]:
        """The vi-th coordinate of a degree-n element, in A^n terms."""
        amb = self.ambient[n]
        gen = amb.to_vector(self.inclusions[n].apply(elem))
        return amb.summands[vi].from_vector(gen[amb.span(vi)])

    def value_at(self, n: int, elem, hkey: str,
                 ref: SimplexRef) -> tuple[int, ...]:
        """Evaluate a degree-n element on any reference over G/H."""
        col, hom = self.cells.evaluation(self.theory.terms[n], hkey, ref)
        return hom.apply(self.var_value(n, elem, col))

    def bredon_iso(self, n: int) -> AbHom:
        """Projection onto the degree-n coordinates, valued in M.

        Defined when A^n(G/H) at level n has the coefficient group in
        its own coordinates, as the canonical theory does.
        """
        ec = self.ec
        amb, cochains = self.ambient[n], ec.groups[n]
        blocks = []
        for bj, o in enumerate(ec.orbits[n]):
            vi = self.cells.index[o.rep]
            ngens = cochains.summands[bj].ngens
            if amb.summands[vi].ngens != ngens:
                raise ValueError(
                    "theory coordinates do not project onto coefficients")
            blocks.append(((bj, vi), IntMatrix.identity(ngens)))
        big = assemble_hom(amb, cochains, blocks)
        return big.compose(self.inclusions[n])


def theory_cohomology(ec: EquivariantCochains, theory: CartanTheory,
                      provider, n: int) -> FgAbGroup:
    """H^n of the lift complex; degree 0 is a kernel by convention."""
    ls = LiftSystem(ec, theory, provider, min(n + 1, theory.i_max))
    return ls.cohomology(n).group


# the main comparison ------------------------------------------------

def crosscheck_theorem(gx: GSimplicialSet, cat: OrbitCategory,
                       system: CoefficientSystem, provider, nmax: int,
                       theory: CartanTheory | None = None) -> dict:
    """Compare twisted Bredon cohomology with lift cohomology.

    Returns per-degree normal forms from both pipelines together with
    match flags; for theories in canonical coordinates the explicit
    cochain-level isomorphism is built and checked against the
    differentials.
    """
    space = gx.space
    maxdim = space.dimension
    ecn = min(space.truncation, max(nmax + 1, maxdim))
    ec = EquivariantCochains(gx, cat, system, ecn)
    if theory is None:
        theory = canonical_theory(cat, system, nmax + 1,
                                  max(maxdim, nmax + 1))
    if theory.i_max < nmax + 1:
        raise ValueError("theory truncated below the requested degree")
    tc = twisted_complex(ec, provider)
    ls = LiftSystem(ec, theory, provider, nmax + 1)
    report = {"degrees": [], "all_match": True}
    for n in range(nmax + 1):
        hb = tc.cohomology(n).group
        hl = ls.cohomology(n).group
        entry = {"degree": n, "bredon": hb.describe(), "lift": hl.describe(),
                 "match": hb.normal_form() == hl.normal_form()}
        report["degrees"].append(entry)
        report["all_match"] = report["all_match"] and entry["match"]
    try:
        top = min(nmax + 1, ec.nmax)
        phis = {n: ls.bredon_iso(n) for n in range(top + 1)}
        report["iso"] = all(phi.is_iso() for phi in phis.values())
        commutes = True
        for n in range(nmax + 1):
            if n + 1 not in phis or n not in ls.diffs:
                continue
            lhs = tc.diffs[n].compose(phis[n])
            rhs = phis[n + 1].compose(ls.diffs[n])
            commutes = commutes and lhs.equal_as_maps(rhs)
        report["commutes"] = commutes
    except ValueError:
        # non-canonical coordinates: normal-form comparison only
        report["iso"] = None
        report["commutes"] = None
    return report


# vertical homotopies ------------------------------------------------

def cylinder_with_action(gx: GSimplicialSet, truncation: int | None = None):
    """Cylinder of the underlying space, with the action on the left
    factor; the end inclusions and the projection are equivariant."""
    pc, i0, i1, pr = cylinder(gx.space, truncation)
    perms = {}
    for gname, table in gx.perms.items():
        out = {}
        for cid, (rx, ry) in pc.pair_of.items():
            gref = SimplexRef(rx.word, table[rx.base])
            out[cid] = pc.ref_of_pair(gref, ry).base
        perms[gname] = out
    gcyl = GSimplicialSet(pc.complex, gx.group, perms)
    return pc, i0, i1, pr, gcyl


class _CylinderLaws:
    """The degree-n face laws of lifts on the cylinder, valued in the
    kernel term Z^n, that `vertical_homotopy` solves against.

    ends        per end orbit: its orbit type, the base cell it lies
                over, whether it lies at end 0, the inclusion of Z^n
                into A^n at its level, and its span and group among
                the unknowns
    end_laws    the face laws of the end cells
    laws        the face laws of the middle cells
    aug         the columns of `laws` at the middle unknowns, next to
                the relations of its target
    """

    def __init__(self, ls: LiftSystem, n: int):
        theory = ls.theory
        if n >= theory.i_max:
            raise ValueError("kernel term needs the next differential")
        pc, _i0, _i1, _pr, gcyl = cylinder_with_action(ls.ec.gx)
        maxdim = pc.complex.dimension
        if maxdim > theory.p_max:
            raise ValueError("theory truncated below the cylinder dimension")
        zn = kernel_term(theory, n)
        cells = LiftCells(pc.complex, ls.ec.cat,
                          {q: gcyl.orbits(q) for q in range(maxdim + 1)},
                          maxdim)
        amb = cells.ambient(zn)
        self.ends = []
        end_rows = set()
        for vi, (q, o) in enumerate(cells.orbits):
            rx, ry = pc.pair_of[o.rep]
            if ry.base != "0-1":
                end_rows.add(vi)
                self.ends.append((o.stab_key, rx, ry.base == "0",
                                  zn.inclusions[o.stab_key][q], amb.span(vi),
                                  amb.summands[vi]))

        twist = None
        if ls.provider is not None:
            def twist(hkey, rep, lvl):
                inc = zn.inclusions[hkey][lvl]
                ph = theory.psi(hkey,
                                ls.provider.phi_hom(hkey, pc.pair_of[rep][0]),
                                n, lvl)
                return ph.compose(inc).factor_through(inc)

        self.end_laws = cells.face_constraints(amb, zn, twist, rows=end_rows)
        middles = [vi for vi in range(len(cells.orbits))
                   if vi not in end_rows]
        self.laws = cells.face_constraints(amb, zn, twist, rows=set(middles))
        cols = self.laws.matrix.cols()
        free = [c for vi in middles for c in cols[amb.span(vi)]]
        self.aug = IntMatrix.hstack([
            IntMatrix.from_cols(free, self.laws.matrix.nrows),
            self.laws.target.rels])


def vertical_homotopy(ls: LiftSystem, n: int, f, g) -> bool:
    """Whether degree-n lifts f and g are equivariantly vertically
    homotopic.

    f and g are lift elements in canonical coordinates.  A homotopy is
    a lift on the cylinder, valued in the kernel term Z^n, restricting
    to f and g at the ends.  With the end values fixed, the face laws
    of the middle cells are linear in the middle values, so the answer
    is one integer solve; Z^n need not be finite.  The laws are built
    on the first call for (ls, n) and kept on ls.
    """
    cyl = ls.cylinder_laws(n)
    x = [0] * cyl.end_laws.source.ngens  # the middle values are unknown
    for hkey, rx, at_f, inc, span, group in cyl.ends:
        zv = element_preimage(inc, ls.value_at(n, f if at_f else g, hkey, rx))
        if zv is None:
            # an end value escapes the kernel term; no homotopy can
            # restrict to it
            return False
        x[span] = group.to_vector(zv)
    end_laws = cyl.end_laws
    if any(end_laws.target.from_vector(end_laws.matrix.apply(x))):
        raise ValueError("end restriction violates the face laws")
    return solve(cyl.aug, [-c for c in cyl.laws.matrix.apply(x)]) is not None


# named presentations for contraction checks -------------------------

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
