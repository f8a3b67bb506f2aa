"""Edge-path twisting for local systems indexed by the fundamental group.

On a connected complex with chosen basepoint and a chosen edge path
from the basepoint to every vertex, each simplex y of dimension n >= 1
determines a loop: walk to the initial vertex of the leading edge of
y, traverse that edge, and walk back from its terminal vertex.  The
loop is kept as a word of directed edges and never identified with
other words; only its action on coefficients is ever used.  An edge
action system assigns to every nondegenerate edge an automorphism of
the coefficients at each orbit, constrained so that words that bound
agree: degenerate edges act trivially, the long edge of a triangle
acts as the composite of the two short ones, and transported edges
act compatibly with restriction.

Conventions: an edge runs from its face-1 vertex to its face-0 vertex;
a step (edge, +1) traverses it forward.  A word lists steps in
traversal order, and acts by applying the first step first.
"""

from __future__ import annotations

from .abgroups import AbHom
from .coefficients import CoefficientSystem, hom_from_json
from .equivariant import OGComplex
from .reader import (OBJECT, ROWS, STEP, STEPS, STRING, SUBGROUP_PATHS,
                     VERTEX_PATHS, entries, expect, known, members)
from .simplicial import FiniteSimplicialSet, SimplexRef, nondeg


class EdgeWord:
    """Word of directed nondegenerate edges, in traversal order."""

    __slots__ = ("steps",)

    def __init__(self, steps):
        self.steps = tuple((e, d) for e, d in steps)

    def inverse(self) -> "EdgeWord":
        return EdgeWord([(e, -d) for e, d in reversed(self.steps)])

    def concat(self, other: "EdgeWord") -> "EdgeWord":
        """self followed by other."""
        steps = list(self.steps)
        for e, d in other.steps:
            if steps and steps[-1] == (e, -d):
                steps.pop()
            else:
                steps.append((e, d))
        return EdgeWord(steps)

    def __repr__(self) -> str:
        return "EdgeWord[" + " ".join(
            ("" if d > 0 else "~") + e for e, d in self.steps) + "]"


def edge_endpoints(fs: FiniteSimplicialSet, eid: str) -> tuple[str, str]:
    """(start, end) vertices, i.e. (face 1, face 0)."""
    return fs.base_face(1, eid).base, fs.base_face(0, eid).base


class PathChoice:
    """Basepoint and an edge path to every vertex of every fixed complex.

    paths[(subgroup key, vertex)] walks from the basepoint to the
    vertex inside that fixed complex.  The basepoint must be a vertex
    of every fixed complex, with the empty path to itself.
    """

    def __init__(self, ph: OGComplex, basepoint: str,
                 paths: dict[tuple[str, str], EdgeWord]):
        self.ph = ph
        self.basepoint = basepoint
        self.paths = paths
        self.validate()

    def path_to(self, subgroup_key: str, vertex: str) -> EdgeWord:
        return self.paths[(subgroup_key, vertex)]

    def validate(self):
        for s in self.ph.cat.subgroups:
            fc = self.ph.complexes[s.key]
            if not fc.has_cell(self.basepoint):
                raise ValueError(f"basepoint is not fixed by {s.key}")
            for v in fc.cells.get(0, []):
                w = self.paths.get((s.key, v))
                if w is None:
                    raise ValueError(f"no path to {v!r} in the {s.key} complex")
                at = self.basepoint
                for step in w.steps:
                    if not fc.has_cell(step[0]):
                        raise ValueError(
                            f"path to {v!r} leaves the {s.key} complex")
                    if fc.dim_of(step[0]) != 1:
                        raise ValueError(f"path to {v!r} steps along "
                                         f"{step[0]!r}, which is not an edge")
                    # direction -1 walks the edge from its end to its start
                    a, b = edge_endpoints(fc, step[0])[::step[1]]
                    if a != at:
                        raise ValueError(f"path to {v!r} breaks at {step}")
                    at = b
                if at != v:
                    raise ValueError(f"path to {v!r} ends at {at!r}")
            if self.paths[(s.key, self.basepoint)].steps:
                raise ValueError("basepoint must carry the empty path")

    @classmethod
    def from_json(cls, ph: OGComplex, data: dict) -> "PathChoice":
        known(data, ("basepoint", "paths"), "twist 'kappa'")
        basepoint = expect(data, "basepoint", STRING, "twist")
        if basepoint not in ph.complexes[ph.cat.subgroups[0].key].cells[0]:
            raise ValueError(f"twist 'basepoint' {basepoint!r} names no vertex")
        paths = {}
        for skey, per in entries(expect(data, "paths", SUBGROUP_PATHS, "twist"),
                                 VERTEX_PATHS, "twist 'paths'"):
            if skey not in ph.complexes:
                raise ValueError(f"twist 'paths' key {skey!r} names no subgroup")
            vertices = set(ph.complexes[skey].cells.get(0, ()))
            for v, steps in entries(per, STEPS, "twist 'paths'", skey):
                if v not in vertices:
                    raise ValueError(f"twist 'paths' key {v!r} at {skey!r} "
                                     f"names no vertex of that fixed complex")
                for _edge, d in members(steps, STEP, "twist 'paths' step", v):
                    if type(d) is not int or d not in (1, -1):
                        raise ValueError(f"twist 'paths' step direction {d!r} "
                                         f"at {v!r} is not 1 or -1")
                paths[(skey, v)] = EdgeWord(steps)
        return cls(ph, basepoint, paths)


def loop_of_simplex(fc: FiniteSimplicialSet, choice: PathChoice,
                    subgroup_key: str, ref: SimplexRef) -> EdgeWord:
    """The loop attached to a simplex of dimension >= 1.

    Reduce to the leading edge by stripping faces 2..n, then conjugate
    by the chosen paths to its endpoints.
    """
    n = fc.dim_of_ref(ref)
    if n < 1:
        raise ValueError("loops start in dimension 1")
    m = ref
    for i in range(n, 1, -1):
        m = fc.face(i, m)
    if m.word:
        # degenerate leading edge: walk to the vertex and straight back
        to_v = choice.path_to(subgroup_key, m.base)
        return to_v.concat(to_v.inverse())
    a, b = edge_endpoints(fc, m.base)
    to_a = choice.path_to(subgroup_key, a)
    to_b = choice.path_to(subgroup_key, b)
    return to_a.concat(EdgeWord([(m.base, 1)])).concat(to_b.inverse())


class EdgeActionSystem:
    """Automorphism of the coefficients for every edge of every fixed
    complex, consistent on triangles and under transport."""

    def __init__(self, ph: OGComplex, system: CoefficientSystem,
                 mats: dict[tuple[str, str], AbHom]):
        self.ph = ph
        self.system = system
        self.mats = mats
        self._inv: dict[tuple[str, str], AbHom] = {}
        self.validate()

    def edge_hom(self, subgroup_key: str, eid: str, direction: int) -> AbHom:
        if direction > 0:
            return self.mats[(subgroup_key, eid)]
        key = (subgroup_key, eid)
        if key not in self._inv:
            self._inv[key] = self.mats[key].inverse()
        return self._inv[key]

    def hom_of_ref(self, subgroup_key: str, ref: SimplexRef) -> AbHom:
        """Action of a 1-simplex reference; degenerate edges act trivially."""
        if ref.word:
            return AbHom.identity(self.system.values[subgroup_key])
        return self.mats[(subgroup_key, ref.base)]

    def act(self, subgroup_key: str, word: EdgeWord) -> AbHom:
        out = AbHom.identity(self.system.values[subgroup_key])
        for e, d in word.steps:
            out = self.edge_hom(subgroup_key, e, d).compose(out)
        return out

    def validate(self):
        for s in self.ph.cat.subgroups:
            fc = self.ph.complexes[s.key]
            val = self.system.values[s.key]
            for eid in fc.cells.get(1, []):
                h = self.mats.get((s.key, eid))
                if h is None:
                    raise ValueError(f"no action for edge {eid!r} at {s.key}")
                if h.source is not val or h.target is not val:
                    raise ValueError(f"edge {eid!r} action has wrong endpoints")
                if not h.is_iso():
                    raise ValueError(f"edge {eid!r} does not act invertibly")
            for tid in fc.cells.get(2, []):
                t = nondeg(tid)
                long = self.hom_of_ref(s.key, fc.face(1, t))
                first = self.hom_of_ref(s.key, fc.face(2, t))
                second = self.hom_of_ref(s.key, fc.face(0, t))
                if not long.equal_as_maps(second.compose(first)):
                    raise ValueError(f"triangle {tid!r} breaks composition")
        for m in self.ph.cat.all_morphisms():
            res = self.system.maps[m.key]
            tgt_fc = self.ph.complexes[m.tgt.key]
            tr = self.ph.maps[m.key]
            for eid in tgt_fc.cells.get(1, []):
                moved = tr.values[eid].base
                lhs = self.mats[(m.src.key, moved)].compose(res)
                rhs = res.compose(self.mats[(m.tgt.key, eid)])
                if not lhs.equal_as_maps(rhs):
                    raise ValueError(
                        f"edge {eid!r} action breaks transport along {m.key}")

    @classmethod
    def from_json(cls, ph: OGComplex, system: CoefficientSystem,
                  data: dict) -> "EdgeActionSystem":
        mats = {}
        for skey, per in entries(data, OBJECT, "action 'edges'"):
            if skey not in ph.complexes:
                raise ValueError(f"action 'edges' key {skey!r} names no subgroup")
            val = system.values[skey]
            edges = set(ph.complexes[skey].cells.get(1, ()))
            for eid, rows in entries(per, ROWS, "action 'edges'", skey):
                if eid not in edges:
                    raise ValueError(f"action 'edges' key {eid!r} at {skey!r} "
                                     f"names no edge of that fixed complex")
                mats[(skey, eid)] = hom_from_json(
                    rows, val, val, f"action 'edges' key {eid!r} at {skey!r}")
        return cls(ph, system, mats)
