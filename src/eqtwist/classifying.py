"""Simplicial groups, their classifying complexes, and total complexes.

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

The function sending a simplex to its top coordinate is a twisting
function with values in the group one level down, and the twisted
product of the group with its classifying complex along it is the
total complex, contractible through the explicit operators checked by
contraction_identities.
"""

from __future__ import annotations

import itertools

from .groups import FiniteGroup
from .simplicial import Materialized, PairedComplex, SimplexRef, \
    materialize_complex


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

    def face_iter(self, i: int, q: int, name: str, times: int) -> str:
        # d_i applied repeatedly, dropping one level each time
        for k in range(times):
            name = self.face(i, q - k, name)
        return name

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


def classifying_twist(sg: SimplicialFiniteGroup, wbar: Materialized):
    """The top-coordinate twisting function on the classifying complex."""
    def tau(ref: SimplexRef) -> str:
        t = wbar.el_of_ref(ref)
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
        el = fiber.el_of_ref(ref)
        return fiber.ref_of(q, sg.levels[q].mul(gname, el))

    pc = PairedComplex(fiber.complex, base.complex, trunc, twist=tau, act=act)
    return pc, fiber, base


# the total complex, elementwise ------------------------------------

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
        acc = sg.levels[i].mul(acc, sg.face_iter(0, q=mm, name=xs[mm],
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
