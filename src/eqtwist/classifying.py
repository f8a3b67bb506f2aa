"""Simplicial groups and their classifying complexes W-bar.

A simplicial group is a finite group in every dimension with face and
degeneracy homomorphisms between the levels.  Its classifying complex
has q-simplices the tuples (y_{q-1}, ..., y_0) with y_k in level k,
written top level first.  The operators used here, with the lowered
coordinate always multiplied on the right by the zero face of the one
above it, are:

    d_0 (y_{q-1}, ..., y_0) = (y_{q-2}, ..., y_0)
    d_j (...) = (d_{j-1} y_{q-1}, ..., d_1 y_{q-j+1},
                 y_{q-j-1} * d_0 y_{q-j}, y_{q-j-2}, ..., y_0)
    d_q (...) = (d_{q-1} y_{q-1}, ..., d_1 y_1)
    s_0 (...) = (e_q, y_{q-1}, ..., y_0)
    s_j (...) = (s_{j-1} y_{q-1}, ..., s_0 y_{q-j}, e_{q-j},
                 y_{q-j-1}, ..., y_0)

Only constant simplicial groups reach the package: the classifying
complex of a constant group pi is the nerve of pi, and
`twisting.check_naturality` reads a group twist's classifying map
into it.
"""

from __future__ import annotations

import itertools

from .groups import FiniteGroup
from .simplicial import Materialized, materialize_complex


class SimplicialFiniteGroup:
    """Finite group in each dimension with levelwise face/degeneracy maps."""

    def __init__(self, levels: list[FiniteGroup],
                 face_maps: dict[tuple[int, int], dict[str, str]],
                 deg_maps: dict[tuple[int, int], dict[str, str]],
                 check: bool = True):
        self.levels = list(levels)
        self.face_maps = face_maps
        self.deg_maps = deg_maps
        if check:
            self.validate()

    @property
    def truncation(self) -> int:
        return len(self.levels) - 1

    def face(self, i: int, q: int, name: str) -> str:
        return self.face_maps[(q, i)][name]

    def deg(self, j: int, q: int, name: str) -> str:
        return self.deg_maps[(q, j)][name]

    @classmethod
    def constant(cls, pi: FiniteGroup, truncation: int) -> "SimplicialFiniteGroup":
        ident = {n: n for n in pi.names}
        face_maps = {(q, i): ident for q in range(1, truncation + 1)
                     for i in range(q + 1)}
        deg_maps = {(q, j): ident for q in range(truncation)
                    for j in range(q + 1)}
        return cls([pi] * (truncation + 1), face_maps, deg_maps, check=False)

    def validate(self):
        top = self.truncation
        for q in range(1, top + 1):
            for i in range(q + 1):
                f = self.face_maps[(q, i)]
                ga, gb = self.levels[q], self.levels[q - 1]
                for a in ga.names:
                    for b in ga.names:
                        if f[ga.mul(a, b)] != gb.mul(f[a], f[b]):
                            raise ValueError(f"d{i} at level {q} is not a hom")
        for q in range(top):
            for j in range(q + 1):
                f = self.deg_maps[(q, j)]
                ga, gb = self.levels[q], self.levels[q + 1]
                for a in ga.names:
                    for b in ga.names:
                        if f[ga.mul(a, b)] != gb.mul(f[a], f[b]):
                            raise ValueError(f"s{j} at level {q} is not a hom")
        # simplicial identities, elementwise
        for q in range(2, top + 1):
            for j in range(1, q + 1):
                for i in range(j):
                    for a in self.levels[q].names:
                        if self.face(i, q - 1, self.face(j, q, a)) != \
                                self.face(j - 1, q - 1, self.face(i, q, a)):
                            raise ValueError("face identities fail")
        for q in range(top):
            for j in range(q + 1):
                for i in range(q + 2):
                    for a in self.levels[q].names:
                        lhs = self.face(i, q + 1, self.deg(j, q, a))
                        if i < j:
                            rhs = self.deg(j - 1, q - 1, self.face(i, q, a)) \
                                if q >= 1 else None
                        elif i in (j, j + 1):
                            rhs = a
                        else:
                            rhs = self.deg(j, q - 1, self.face(i - 1, q, a)) \
                                if q >= 1 else None
                        if rhs is not None and lhs != rhs:
                            raise ValueError("face/degeneracy identities fail")


# classifying complex ------------------------------------------------

def classifying_face(sg: SimplicialFiniteGroup, i: int, q: int,
                     t: tuple[str, ...]) -> tuple[str, ...]:
    # t[k] lives in level q-1-k
    if i == 0:
        return t[1:]
    out = []
    for k in range(i - 1):
        out.append(sg.face(i - 1 - k, q - 1 - k, t[k]))
    if i <= q - 1:
        lvl = q - 1 - i
        out.append(sg.levels[lvl].mul(t[i], sg.face(0, q - i, t[i - 1])))
        out.extend(t[i + 1:])
    return tuple(out)


def classifying_deg(sg: SimplicialFiniteGroup, j: int, q: int,
                    t: tuple[str, ...]) -> tuple[str, ...]:
    if j == 0:
        return (sg.levels[q].identity,) + t
    out = []
    for k in range(j):
        out.append(sg.deg(j - 1 - k, q - 1 - k, t[k]))
    out.append(sg.levels[q - j].identity)
    out.extend(t[j:])
    return tuple(out)


def classifying_complex(sg: SimplicialFiniteGroup,
                        truncation: int | None = None) -> Materialized:
    trunc = sg.truncation if truncation is None else truncation

    def elements(q):
        if q == 0:
            return [()]
        pools = [sg.levels[q - 1 - k].names for k in range(q)]
        return [tuple(t) for t in itertools.product(*pools)]

    def id_of(q, t):
        return "w[" + ",".join(t) + "]"

    return materialize_complex(
        trunc, elements,
        lambda i, q, t: classifying_face(sg, i, q, t),
        lambda j, q, t: classifying_deg(sg, j, q, t),
        id_of)
