"""Simplicial abelian models of cochains and cocycles on the simplices.

For an abelian group A and n >= 0, the model C(A, n) has in dimension
q the normalized A-valued n-cochains of the q-simplex: functions on
the (n+1)-element vertex subsets.  Operators act by precomposition
with the corresponding monotone map, a degeneracy killing any subset
that collapses.  The coboundary delta: C(A, n) -> C(A, n+1) is the
alternating vertex sum in every dimension, and its levelwise kernel
K(A, n) is the model of cocycles.

Everything is kept matrix-level over the presented group A, so the
models work for any finitely generated A.  The canonical Cartan
theory takes its terms from these models, and `em-info` counts the
levels of K(A, n).
"""

from __future__ import annotations

import itertools

from .abgroups import AbHom, FgAbGroup, assemble_hom, direct_sum
from .intmat import IntMatrix


def vertex_subsets(q: int, size: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(q + 1), size))


class CochainModel:
    """The simplicial abelian group C(A, n) up to a level bound."""

    def __init__(self, a: FgAbGroup, n: int, top: int):
        self.coeff = a
        self.n = n
        self.top = top
        self.subsets = {q: vertex_subsets(q, n + 1) for q in range(top + 1)}
        self.levels = [direct_sum([a] * len(self.subsets[q]))
                       for q in range(top + 1)]
        plus = IntMatrix.identity(a.ngens)
        self._signed = {1: plus, -1: -plus}  # the blocks of block_hom

    def block_hom(self, q_from: int, q_to: int,
                  assign: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]],
                  target_model: "CochainModel | None" = None) -> AbHom:
        """Hom whose output at subset beta is a signed sum of inputs.

        assign maps each output subset of target_model (this model by
        default) to (input subset, sign) pairs, each sign 1 or -1.
        """
        tm = self if target_model is None else target_model
        out_index = {b: i for i, b in enumerate(tm.subsets[q_to])}
        in_index = {b: i for i, b in enumerate(self.subsets[q_from])}
        blocks = [((out_index[beta], in_index[alpha]), self._signed[sign])
                  for beta, terms in assign.items() for alpha, sign in terms]
        return assemble_hom(self.levels[q_from], tm.levels[q_to], blocks)

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
        blocks = [((j, j), h.matrix) for j in range(len(self.subsets[q]))]
        return assemble_hom(self.levels[q], tm.levels[q], blocks)


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
