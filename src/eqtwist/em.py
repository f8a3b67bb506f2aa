"""Simplicial abelian models of cochains and cocycles on the simplices.

For an abelian group A and n >= 0, the model C(A, n) has in dimension
q the normalized A-valued n-cochains of the q-simplex: functions on
the (n+1)-element vertex subsets.  Operators act by precomposition
with the corresponding monotone map, a degeneracy killing any subset
that collapses.  The coboundary delta: C(A, n) -> C(A, n+1) is the
alternating vertex sum in every dimension, and its levelwise kernel
K(A, n) is the model of cocycles.

Everything is kept matrix-level over the presented group A, so the
models work for any finitely generated A; element-level enumeration
(for building the cocycle model as a bare simplicial set) needs A
finite.

Maps out of a complex into these models are the same thing as
cochains: a map f corresponds to the cochain sending an n-simplex x
to the value of f(x) on the full vertex set, and a cochain c to the
map with f(y)(alpha) = c(y restricted along alpha).
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .abgroups import AbHom, FgAbGroup, direct_sum
from .intmat import IntMatrix
from .simplicial import (FiniteSimplicialSet, Materialized, SimplexRef,
                         apply_monotone, materialize_complex, nondeg)


def vertex_subsets(q: int, size: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(q + 1), size))


class CochainModel:
    """The simplicial abelian group C(A, n) up to a level bound."""

    def __init__(self, a: FgAbGroup, n: int, top: int):
        self.coeff = a
        self.n = n
        self.top = top
        self.subsets = {q: vertex_subsets(q, n + 1) for q in range(top + 1)}
        self.levels = []
        self.offsets = []
        for q in range(top + 1):
            g, offs = direct_sum([a] * len(self.subsets[q]))
            self.levels.append(g)
            self.offsets.append(offs)

    def block_hom(self, q_from: int, q_to: int,
                  assign: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]],
                  target_model: "CochainModel | None" = None) -> AbHom:
        """Hom whose output at subset beta is a signed sum of inputs.

        assign maps each output subset of target_model (this model by
        default) to (input subset, sign) pairs.
        """
        tm = self if target_model is None else target_model
        src = self.levels[q_from]
        tgt = tm.levels[q_to]
        k = self.coeff.ngens
        mat = [[0] * src.ngens for _ in range(tgt.ngens)]
        out_index = {b: i for i, b in enumerate(tm.subsets[q_to])}
        in_index = {b: i for i, b in enumerate(self.subsets[q_from])}
        for beta, terms in assign.items():
            r0 = tm.offsets[q_to][out_index[beta]]
            for alpha, sign in terms:
                c0 = self.offsets[q_from][in_index[alpha]]
                for t in range(k):
                    mat[r0 + t][c0 + t] += sign
        return AbHom(src, tgt, IntMatrix(mat, src.ngens), check=False)

    def face_hom(self, i: int, q: int) -> AbHom:
        assign = {}
        for beta in self.subsets[q - 1]:
            alpha = tuple(v if v < i else v + 1 for v in beta)
            assign[beta] = [(alpha, 1)]
        return self.block_hom(q, q - 1, assign)

    def deg_hom(self, j: int, q: int) -> AbHom:
        assign = {}
        for beta in self.subsets[q + 1]:
            image = tuple(v if v <= j else v - 1 for v in beta)
            if len(set(image)) == len(image):
                assign[beta] = [(image, 1)]
            else:
                assign[beta] = []
        return self.block_hom(q, q + 1, assign)

    def postcompose_hom(self, q: int, h: AbHom,
                        target_model: "CochainModel | None" = None) -> AbHom:
        """Apply a coefficient homomorphism in every coordinate.

        h runs from this model's coefficients to those of target_model
        (itself by default); the result connects the two level groups.
        """
        tm = self if target_model is None else target_model
        if tm.n != self.n:
            raise ValueError("models have different cochain degrees")
        blocks = [h.matrix] * len(self.subsets[q])
        mat = IntMatrix.block_diag(blocks) if blocks else \
            IntMatrix.zeros(0, 0)
        return AbHom(self.levels[q], tm.levels[q], mat, check=False)


def delta_hom(c_n: CochainModel, c_n1: CochainModel, q: int) -> AbHom:
    """Alternating vertex sum C(A, n)_q -> C(A, n+1)_q."""
    if c_n1.n != c_n.n + 1 or c_n1.coeff is not c_n.coeff:
        raise ValueError("models do not fit the coboundary")
    assign = {}
    for gamma in c_n1.subsets[q]:
        terms = []
        for k in range(len(gamma)):
            alpha = gamma[:k] + gamma[k + 1:]
            terms.append((alpha, -1 if k % 2 else 1))
        assign[gamma] = terms
    return c_n.block_hom(q, q, assign, c_n1)


class CocycleModel:
    """Levelwise kernel K(A, n) of the coboundary, with restricted
    operators and the inclusions into C(A, n)."""

    def __init__(self, a: FgAbGroup, n: int, top: int):
        self.coeff = a
        self.n = n
        self.top = top
        self.ambient = CochainModel(a, n, top)
        self.next = CochainModel(a, n + 1, top)
        self.levels = []
        self.inclusions = []
        for q in range(top + 1):
            d = delta_hom(self.ambient, self.next, q)
            ker, incl = d.kernel()
            self.levels.append(ker)
            self.inclusions.append(incl)

    def face_hom(self, i: int, q: int) -> AbHom:
        amb = self.ambient.face_hom(i, q).compose(self.inclusions[q])
        return amb.factor_through(self.inclusions[q - 1])

    def deg_hom(self, j: int, q: int) -> AbHom:
        amb = self.ambient.deg_hom(j, q).compose(self.inclusions[q])
        return amb.factor_through(self.inclusions[q + 1])

    def lift(self, q: int, vec: Sequence[int]):
        """Canonical coordinates of the cocycle with the given ambient
        generator coordinates, or None if it is not a cocycle."""
        x = self.inclusions[q].preimage(vec)
        return None if x is None else self.levels[q].from_vector(x)


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


# cochains of a complex <-> maps into the models --------------------

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
            el = k.lift(q, coords)
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
        el = mat.el_of_ref(values[cid])
        amb = k.inclusions[n].apply(el)
        # dimension n has the single subset (0, ..., n)
        assert len(k.ambient.subsets[n]) == 1
        gen_coords = k.ambient.levels[n].to_vector(amb)
        out[cid] = k.coeff.from_vector(gen_coords[: k.coeff.ngens])
    return out
