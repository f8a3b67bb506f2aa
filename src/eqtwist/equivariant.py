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

Loading a complex checks both, on tables.  The action must keep each
cell's dimension, act bijectively, obey the group law (composed on cell
numbers) and commute with every face: g d_i x and d_i(g x) are read
from the face table, so no face operator runs.  The system numbers the
cells of each fixed complex once and writes each map as a tuple of
cell numbers; every value must be a cell of the map's target, each
identity must be the identity tuple, and every composable pair must
compose, its composite found by table index.  Each cell's stabilizer
is found once, and the fixed complex of H holds the cells whose
stabilizer contains H.
"""

from __future__ import annotations

from .groups import FiniteGroup, OrbitCategory, subgroup_key
from .reader import OBJECT, entries, expect, known
from .simplicial import FiniteSimplicialSet, SimplicialMap, nondeg

# per orbit of q-cells, the (face index, orbit of (q-1)-cells, table
# index of the transporter) of each nondegenerate face of its
# representative
FaceTable = tuple[tuple[tuple[int, int, int], ...], ...]


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
        every = sorted(all_ids)
        for a in g.names:
            p = self.perms[a]
            for q, ids in fs.cells.items():
                for cid in ids:
                    if fs.dim_of(p[cid]) != q:
                        raise ValueError(
                            f"{a} moves {cid!r} across dimensions")
            if sorted(p.values()) != every:
                raise ValueError(f"{a} does not act bijectively")
        # the group law on cell numbers: each element as the list of the
        # numbers of its images
        number = {cid: k for k, cid in enumerate(all_ids)}
        moves = {a: [number[self.perms[a][cid]] for cid in all_ids]
                 for a in g.names}
        for a in g.names:
            pa = moves[a]
            for b in g.names:
                if [pa[k] for k in moves[b]] != moves[g.mul(a, b)]:
                    raise ValueError("action fails the group law")
        # g d_i x = d_i(g x) on the face table: d_i x and d_i(g x) are
        # entries of the table, so the check compares their words, and g
        # of the base of the one with the base of the other
        table = fs.face_table
        for a in g.names:
            p = self.perms[a]
            for q in range(1, fs.truncation + 1):
                for cid in fs.cells[q]:
                    faces, moved = table[cid], table[p[cid]]
                    for i in range(q + 1):
                        word, base = faces[i]
                        if moved[i] != (word, p[base]):
                            raise ValueError(
                                f"{a} fails to commute with d{i} at {cid!r}")

    # fixed points and orbits ----------------------------------------

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
        of its representative as (i, j, g): face d_i is the element of
        table index g times the representative of orbit j of
        orbits(q - 1).  The index is what `OrbitCategory.by_index` takes,
        so a coboundary finds each face's orbit morphism without reading
        a name.  The faces are resolved on the first call for q; they
        depend on the complex and its action alone, so every set of
        cochains on the complex reads them."""
        if q not in self._faces:
            # the orbit and transporter index of each (q-1)-cell, kept
            # only while the faces are resolved
            index = self.group.index
            where = {cid: (j, index[o.transporters[cid]])
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
        known(data, ("truncation", "simplices", "faces", "group", "action"),
              "complex")
        space = FiniteSimplicialSet.from_json(data)
        group = FiniteGroup.from_json(expect(data, "group", OBJECT, "complex"),
                                      "complex 'group'")
        action = expect(data, "action", OBJECT, "complex", {})
        cells = [cid for ids in space.cells.values() for cid in ids]
        for g, perm in entries(action, OBJECT, "complex 'action'"):
            where = f"complex 'action' key {g!r}"
            if g not in group.index:
                raise ValueError(f"{where} names no element of the group")
            for cid, image in perm.items():
                if not space.has_cell(cid):
                    raise ValueError(f"{where} moves {cid!r}, which names "
                                     f"no cell")
                # a name that is no string names no cell
                if type(image) is not str or not space.has_cell(image):
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
        """Checks the system on cell numbers.  Each complex's cells are
        numbered once, in their order, and each map is written as the
        tuple of the numbers of its values.  That pass refuses a value
        that is degenerate or no cell of the map's target: the group acts
        by automorphisms, so a transport sends cells to cells.  Then each
        identity must be the identity tuple, and each composable pair
        (f, h), in `composable_pairs` order, must give maps[f] after
        maps[h] = maps[h o f]; a pair whose last complex has no cell holds
        vacuously and is skipped."""
        cat = self.cat
        cells = {key: [cid for ids in cx.cells.values() for cid in ids]
                 for key, cx in self.complexes.items()}
        numbers = {key: {cid: k for k, cid in enumerate(ids)}
                   for key, ids in cells.items()}
        table = {}
        for m in cat.all_morphisms():
            number = numbers[m.src.key]
            values = self.maps[m.key].values
            row = tuple([None if word else number.get(base) for word, base
                         in map(values.__getitem__, cells[m.tgt.key])])
            if None in row:
                raise ValueError(
                    f"transport along {m.key} leaves the fixed complex")
            table[m.key] = row
        for s in cat.subgroups:
            identity = table[cat.identity(s.key).key]
            if identity != tuple(range(len(cells[s.key]))):
                raise ValueError(f"identity of {s.key} acts nontrivially")
        ends = {key for key, ids in cells.items() if ids}
        for f, h, hf in cat.composites(ends):
            then = table[f.key]
            if tuple([then[k] for k in table[h.key]]) != table[hf.key]:
                raise ValueError(f"functoriality fails at {f.key} ; {h.key}")


def fixed_point_system(gx: GSimplicialSet, cat: OrbitCategory) -> OGComplex:
    """The fixed complex X^H of every subgroup H, and for every orbit
    morphism G/H -> G/K of representative g the map x -> g x from X^K to
    X^H.  Each cell's stabilizer is found once, and X^H holds the cells
    whose stabilizer contains H."""
    space = gx.space
    trunc = space.truncation
    cells = {s.key: {q: [] for q in range(trunc + 1)} for s in cat.subgroups}
    # the keys of the subgroups inside each distinct stabilizer
    inside = {}
    for q in range(trunc + 1):
        for cid in space.cells[q]:
            stab = gx.stabilizer_members(cid)
            keys = inside.get(stab)
            if keys is None:
                keys = inside[stab] = [s.key for s in cat.subgroups
                                       if s.members <= stab]
            for key in keys:
                cells[key][q].append(cid)
    table = space.face_table
    complexes = {}
    for key, fixed in cells.items():
        faces = {cid: table[cid] for q in range(1, trunc + 1)
                 for cid in fixed[q]}
        complexes[key] = FiniteSimplicialSet(trunc, fixed, faces, check=False)
    ref = {cid: nondeg(cid) for ids in space.cells.values() for cid in ids}
    maps = {}
    for m in cat.all_morphisms():
        perm = gx.perms[m.rep]
        src_cx, tgt_cx = complexes[m.src.key], complexes[m.tgt.key]
        vals = {cid: ref[perm[cid]]
                for ids in tgt_cx.cells.values() for cid in ids}
        maps[m.key] = SimplicialMap(tgt_cx, src_cx, vals, check=False)
    return OGComplex(cat, complexes, maps)
