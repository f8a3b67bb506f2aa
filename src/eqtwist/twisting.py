"""Twisting functions on complexes and the induced classifying maps.

A twisting function assigns to every simplex of positive dimension an
element of a fixed finite group, subject to the identities that make
the twisted product with that group's classifying complex simplicial:

    tau(d_1 x) = tau(d_0 x) * tau(x)        for dim x >= 2
    tau(d_i x) = tau(x)                     for i >= 2
    tau(s_i x) = tau(x)                     for i >= 1
    tau(s_0 x) = e

Values are stored on nondegenerate cells, and `value` reads the last
two identities into every reference (s_0 ends the word in 0; s_i, i >= 1,
keeps a final 0 or its absence).  So a twist is checked on its face
table; with a group action it must also be natural, on one classifying map.

Each twisting function induces a map to the classifying complex,
sending x of dimension q to the tuple of values on the iterated zero
faces of x, and that map is simplicial exactly when the identities
above hold.
"""

from __future__ import annotations

from .classifying import SimplicialFiniteGroup, classifying_complex
from .equivariant import GSimplicialSet, OGComplex
from .groups import FiniteGroup
from .reader import STRING, entries
from .simplicial import (FiniteSimplicialSet, Materialized, SimplexRef,
                         SimplicialMap, nondeg)


class GroupTwist:
    """Twisting function on a complex with values in a finite group."""

    def __init__(self, space: FiniteSimplicialSet, pi: FiniteGroup,
                 values: dict[str, str], check: bool = True):
        self.space = space
        self.pi = pi
        self.values = dict(values)
        if check:
            self.validate()

    def value(self, ref: SimplexRef) -> str:
        if self.space.dim_of_ref(ref) < 1:
            raise ValueError("twisting functions start in dimension 1")
        if ref.word and ref.word[-1] == 0:
            return self.pi.identity
        if self.space.dim_of(ref.base) == 0:
            # word without s_0 on a vertex cannot occur: the innermost
            # letter applied to a vertex must be s_0
            raise ValueError("malformed reference")
        return self.values[ref.base]

    def validate(self):
        """The identities are checked at nondegenerate cells alone: at
        y = s_j x each face is x or s_j' d_i' x (simplicial identities),
        so each identity at y is one at x or reads tau(x) = tau(x)."""
        fs = self.space
        for key in self.values:
            if not fs.has_cell(key) or fs.dim_of(key) < 1:
                raise ValueError(f"twist 'values' key {key!r} names no cell "
                                 f"of dimension >= 1")
        for q in range(1, fs.truncation + 1):
            for cid in fs.cells[q]:
                if cid not in self.values:
                    raise ValueError(f"no twist value on {cid!r}")
                if self.values[cid] not in self.pi.index:
                    raise ValueError(f"twist value on {cid!r} not in the group")
        value, mul = self.value, self.pi.mul
        for q in range(2, fs.truncation + 1):
            for cid in fs.cells[q]:
                faces, tau = fs.face_table[cid], self.values[cid]
                if value(faces[1]) != mul(value(faces[0]), tau):
                    raise ValueError(
                        f"tau(d1 x) != tau(d0 x) tau(x) at {nondeg(cid)}")
                for i in range(2, q + 1):
                    if value(faces[i]) != tau:
                        raise ValueError(f"tau(d{i} x) moved at {nondeg(cid)}")

    def check_equivariant(self, gx: GSimplicialSet):
        if gx.space is not self.space:
            raise ValueError("twist lives on a different complex")
        for g in gx.group.names:
            for q in range(1, gx.space.truncation + 1):
                for cid in gx.space.cells[q]:
                    if self.values[gx.perms[g][cid]] != self.values[cid]:
                        raise ValueError(
                            f"twist is not constant on the orbit of {cid!r}")

    @classmethod
    def from_json(cls, space: FiniteSimplicialSet, pi: FiniteGroup,
                  data: dict) -> "GroupTwist":
        return cls(space, pi, dict(entries(data, STRING, "twist 'values'")))


def classifying_map(space: FiniteSimplicialSet, twist: GroupTwist,
                    wbar: Materialized) -> SimplicialMap:
    """The map to the classifying complex induced by a twisting function.

    The map is checked to be simplicial, which is equivalent to the
    twisting identities, so building it re-proves them.
    """
    values = {}
    for q in range(space.truncation + 1):
        for cid in space.cells[q]:
            t = []
            ref = nondeg(cid)
            for k in range(q):
                t.append(twist.value(ref))
                if k < q - 1:
                    ref = space.face(0, ref)
            values[cid] = wbar.ref_of(q, tuple(t))
    return SimplicialMap(space, wbar.complex, values)


def check_naturality(ph: OGComplex, twist: GroupTwist):
    """Build the classifying map theta once, on the complex of ph, and
    compare theta(g c) with theta(c) along each orbit morphism G/H -> G/K
    of representative g, for the cells c of X^K: the map of X^K is theta
    restricted, and the morphisms G/e -> G/e decide orbit constancy."""
    trunc = twist.space.truncation
    wbar = classifying_complex(
        SimplicialFiniteGroup.constant(twist.pi, trunc), trunc)
    theta = classifying_map(twist.space, twist, wbar)
    for m in ph.cat.all_morphisms():
        for cid, ref in ph.maps[m.key].values.items():
            if theta.apply(ref) != theta.values[cid]:
                raise ValueError(f"classifying maps disagree along {m.key}")
