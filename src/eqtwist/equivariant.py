"""Group actions on complexes, fixed points, and orbit decompositions.

An action assigns to each group element a simplicial automorphism,
which necessarily permutes the nondegenerate cells dimensionwise.
Actions may be given on generators only; the rest is closed up through
the multiplication table.

The fixed cells of a subgroup form a subcomplex, and the assignment
H  ->  fixed complex of H, with a morphism of orbits G/H -> G/K of
representative g acting as x -> g x from the K-fixed to the H-fixed
complex, is the contravariant system of fixed complexes used
everywhere downstream.
"""

from __future__ import annotations

from .groups import FiniteGroup, OrbitCategory, subgroup_key
from .simplicial import (FiniteSimplicialSet, SimplexRef, SimplicialMap,
                         nondeg)

# per orbit of q-cells, the (face index, orbit of (q-1)-cells,
# transporter) of each nondegenerate face of its representative
FaceTable = tuple[tuple[tuple[int, int, str], ...], ...]


class GSimplicialSet:
    """A complex with a group acting by cell permutations."""

    def __init__(self, space: FiniteSimplicialSet, group: FiniteGroup,
                 perms: dict[str, dict[str, str]]):
        self.space = space
        self.group = group
        self.perms = {g: dict(p) for g, p in perms.items()}
        # orbits(q) and orbit_faces(q) of each q asked for so far; a
        # complex is fixed once validate has passed
        self._orbits = {}
        self._faces = {}
        self._close()
        self.validate()

    def _close(self):
        g = self.group
        all_ids = [cid for ids in self.space.cells.values() for cid in ids]
        if g.identity not in self.perms:
            self.perms[g.identity] = {cid: cid for cid in all_ids}
        # generate missing elements by composing known permutations
        while len(self.perms) < g.order:
            progress = False
            for a in list(self.perms):
                for b in list(self.perms):
                    ab = g.mul(a, b)
                    if ab in self.perms:
                        continue
                    pa, pb = self.perms[a], self.perms[b]
                    self.perms[ab] = {cid: pa[pb[cid]] for cid in all_ids}
                    progress = True
            if not progress:
                raise ValueError("action generators do not generate the group")

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

    # fixed points and orbits ----------------------------------------

    def fixed_complex(self, members) -> FiniteSimplicialSet:
        fixed = []
        for q in range(self.space.truncation + 1):
            for cid in self.space.cells[q]:
                if all(self.perms[h][cid] == cid for h in members):
                    fixed.append(cid)
        keep = set(fixed)
        cells = {q: [c for c in self.space.cells[q] if c in keep]
                 for q in range(self.space.truncation + 1)}
        faces = {cid: self.space.face_table[cid]
                 for cid in keep if cid in self.space.face_table}
        return FiniteSimplicialSet(self.space.truncation, cells, faces,
                                   check=False)

    def stabilizer_members(self, cid: str) -> frozenset[str]:
        return frozenset(g for g in self.group.names
                         if self.perms[g][cid] == cid)

    def orbits(self, q: int) -> list["CellOrbit"]:
        """G-orbits of nondegenerate q-cells, with canonical representatives.
        They are found on the first call for q; every call returns a
        fresh list of the same orbits."""
        if q not in self._orbits:
            self._orbits[q] = self._find_orbits(q)
        return list(self._orbits[q])

    def _find_orbits(self, q: int) -> list["CellOrbit"]:
        seen = set()
        # one frozenset per distinct stabilizer, kept by every orbit
        # that has it, so the kept orbits hold few sets
        stabilizers = {}
        out = []
        for cid in self.space.cells.get(q, []):
            if cid in seen:
                continue
            members = sorted({self.perms[g][cid] for g in self.group.names})
            rep = min(members)
            seen.update(members)
            transporters = {}
            for target in members:
                for g in self.group.names:  # names are in table order
                    if self.perms[g][rep] == target:
                        transporters[target] = g
                        break
            stab = self.stabilizer_members(rep)
            out.append(CellOrbit(rep, tuple(members),
                                 stabilizers.setdefault(stab, stab),
                                 transporters))
        out.sort(key=lambda o: o.rep)
        return out

    def orbit_faces(self, q: int) -> FaceTable:
        """Per orbit of orbits(q), in that order, the nondegenerate faces
        of its representative as (i, j, g): face d_i is g times the
        representative of orbit j of orbits(q - 1).  They are resolved on
        the first call for q; they depend on the complex and its action
        alone, so every set of cochains on the complex reads them."""
        if q not in self._faces:
            # the orbit and transporter of each (q-1)-cell, kept only
            # while the faces are resolved
            where = {cid: (j, o.transporters[cid])
                     for j, o in enumerate(self.orbits(q - 1))
                     for cid in o.members}
            # a representative is nondegenerate, so its faces are its own
            self._faces[q] = tuple(
                tuple((i, *where[f.base])
                      for i, f in enumerate(self.space.face_table[o.rep])
                      if not f.word)
                for o in self.orbits(q))
        return self._faces[q]

    def to_json(self) -> dict:
        data = self.space.to_json()
        data["group"] = self.group.to_json()
        data["action"] = {g: {cid: p[cid] for cid in sorted(p)}
                          for g, p in sorted(self.perms.items())}
        return data

    @classmethod
    def from_json(cls, data: dict) -> "GSimplicialSet":
        space = FiniteSimplicialSet.from_json(data)
        group = FiniteGroup.from_json(data["group"])
        action = data.get("action", {})
        if type(action) is not dict:
            raise ValueError("complex 'action' must be a JSON object")
        cells = [cid for ids in space.cells.values() for cid in ids]
        known = set(cells)
        for g, perm in action.items():
            where = f"complex 'action' key {g!r}"
            if g not in group.index:
                raise ValueError(f"{where} names no element of the group")
            if type(perm) is not dict:
                raise ValueError(f"{where} must be a JSON object")
            for cid, image in perm.items():
                if cid not in known:
                    raise ValueError(f"{where} moves {cid!r}, which names "
                                     f"no cell")
                if type(image) is not str or image not in known:
                    raise ValueError(f"{where} sends {cid!r} to {image!r}, "
                                     f"which names no cell")
            for cid in cells:
                if cid not in perm:
                    raise ValueError(f"{where} gives no image of {cid!r}")
        return cls(space, group, action)


class CellOrbit:
    __slots__ = ("rep", "members", "stabilizer", "transporters", "stab_key")

    def __init__(self, rep: str, members: tuple[str, ...],
                 stabilizer: frozenset[str], transporters: dict[str, str]):
        self.rep = rep
        self.members = members
        self.stabilizer = stabilizer
        self.transporters = transporters
        self.stab_key = subgroup_key(stabilizer)


class OGComplex:
    """A complex for every orbit, with a map for every orbit morphism.

    complexes  dict subgroup key -> complex
    maps       dict morphism key -> simplicial map, contravariantly:
               a morphism G/H -> G/K yields a map from the K-complex
               to the H-complex
    """

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


def fixed_point_system(gx: GSimplicialSet, cat: OrbitCategory) -> OGComplex:
    complexes = {s.key: gx.fixed_complex(s.members) for s in cat.subgroups}
    maps = {}
    for m in cat.all_morphisms():
        src_cx = complexes[m.src.key]
        tgt_cx = complexes[m.tgt.key]
        vals = {}
        for ids in tgt_cx.cells.values():
            for cid in ids:
                vals[cid] = nondeg(gx.perms[m.rep][cid])
        maps[m.key] = SimplicialMap(tgt_cx, src_cx, vals, check=False)
    out = OGComplex(cat, complexes, maps)
    # the transported cells must indeed be fixed by the source subgroup
    for m in cat.all_morphisms():
        for cid, ref in maps[m.key].values.items():
            if not complexes[m.src.key].has_cell(ref.base):
                raise ValueError(
                    f"transport along {m.key} leaves the fixed complex")
    return out
