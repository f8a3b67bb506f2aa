"""Twisting functions on complexes and the induced classifying maps.

A twisting function assigns to every simplex of positive dimension an
element of a fixed finite group, subject to the identities that make
the twisted product with that group's classifying complex simplicial:

    tau(d_1 x) = tau(d_0 x) * tau(x)        for dim x >= 2
    tau(d_i x) = tau(x)                     for i >= 2
    tau(s_i x) = tau(x)                     for i >= 1
    tau(s_0 x) = e

Values are stored on nondegenerate cells; the last two identities
determine the value on every reference.  On a complex with a group
action the function must also be constant on orbits.

Each twisting function induces a map to the classifying complex,
sending x of dimension q to the tuple of values on the iterated zero
faces of x, and that map is simplicial exactly when the identities
above hold.
"""

from __future__ import annotations

from .classifying import (Materialized, SimplicialFiniteGroup,
                          classifying_complex)
from .equivariant import GSimplicialSet, OGComplex
from .groups import FiniteGroup
from .reader import STRING, entries
from .simplicial import FiniteSimplicialSet, SimplexRef, SimplicialMap, nondeg


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
        for q in range(1, fs.truncation + 1):
            for ref in fs.all_refs(q):
                if q >= 2:
                    lhs = self.value(fs.face(1, ref))
                    rhs = self.pi.mul(self.value(fs.face(0, ref)),
                                      self.value(ref))
                    if lhs != rhs:
                        raise ValueError(
                            f"tau(d1 x) != tau(d0 x) tau(x) at {ref}")
                    for i in range(2, q + 1):
                        if self.value(fs.face(i, ref)) != self.value(ref):
                            raise ValueError(f"tau(d{i} x) moved at {ref}")
                if q < fs.truncation:
                    if self.value(fs.degeneracy(0, ref)) != self.pi.identity:
                        raise ValueError(f"tau(s0 x) != e at {ref}")
                    for i in range(1, q + 1):
                        if self.value(fs.degeneracy(i, ref)) != \
                                self.value(ref):
                            raise ValueError(f"tau(s{i} x) moved at {ref}")
        if fs.truncation >= 1:
            for v in fs.cells[0]:
                if self.value(fs.degeneracy(0, nondeg(v))) != self.pi.identity:
                    raise ValueError(f"tau(s0 {v}) != e")

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
    """Build the classifying map on every fixed complex and compare
    along the orbit category, without assuming orbit constancy first;
    a non natural twist is then reported by the morphism it breaks."""
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
