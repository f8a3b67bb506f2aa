"""Coefficient systems on the orbit category and their group actions.

A coefficient system assigns an abelian group to each orbit and a
homomorphism, contravariantly, to each orbit morphism.  A local system
additionally carries an action of a fixed finite group on every value,
compatible with the restriction maps; that action is what twists the
cochain differentials downstream.
"""

from __future__ import annotations

from .abgroups import AbHom, FgAbGroup
from .groups import FiniteGroup, OrbitCategory
from .intmat import IntMatrix


class CoefficientSystem:
    """Abelian groups indexed by orbits, maps indexed by orbit morphisms."""

    def __init__(self, cat: OrbitCategory, values: dict[str, FgAbGroup],
                 maps: dict[str, AbHom], check: bool = True):
        self.cat = cat
        self.values = values
        self.maps = maps
        if check:
            self.validate()

    def validate(self):
        for m in self.cat.all_morphisms():
            h = self.maps[m.key]
            if h.source is not self.values[m.tgt.key] or \
                    h.target is not self.values[m.src.key]:
                raise ValueError(f"map at {m.key} has wrong endpoints")
        for s in self.cat.subgroups:
            ident = self.cat.identity(s.key)
            if not self.maps[ident.key].equal_as_maps(
                    AbHom.identity(self.values[s.key])):
                raise ValueError(f"identity of {s.key} is not the identity map")
        for f, h in self.cat.composable_pairs():
            comp = self.cat.compose(f, h)
            lhs = self.maps[f.key].compose(self.maps[h.key])
            if not lhs.equal_as_maps(self.maps[comp.key]):
                raise ValueError(f"functoriality fails at {f.key} ; {h.key}")

    @classmethod
    def constant(cls, cat: OrbitCategory, a: FgAbGroup) -> "CoefficientSystem":
        values = {s.key: a for s in cat.subgroups}
        maps = {m.key: AbHom.identity(a) for m in cat.all_morphisms()}
        return cls(cat, values, maps, check=False)

    @classmethod
    def from_json(cls, cat: OrbitCategory, data: dict) -> "CoefficientSystem":
        if "constant" in data:
            a = group_from_json(data["constant"])
            return cls.constant(cat, a)
        values = {key: group_from_json(v) for key, v in data["values"].items()}
        maps = {}
        for m in cat.all_morphisms():
            if m.key in data.get("maps", {}):
                mat = IntMatrix([list(r) for r in data["maps"][m.key]],
                                values[m.tgt.key].ngens)
                maps[m.key] = AbHom(values[m.tgt.key], values[m.src.key], mat)
            elif m.is_identity():
                maps[m.key] = AbHom.identity(values[m.src.key])
            else:
                raise ValueError(f"no map supplied for morphism {m.key}")
        return cls(cat, values, maps)


def group_from_json(data: dict) -> FgAbGroup:
    gens = data["gens"]
    if type(gens) is not int:
        raise ValueError(f"gens {gens!r} is not an integer")
    rels = data.get("rels", [])
    return FgAbGroup.from_relations(gens, [list(r) for r in rels])


class LocalSystem:
    """Coefficient system with an action of a finite group on each value.

    phi[(subgroup key, element name)] is the automorphism by which that
    element acts on the value at the orbit.  The action must be by
    automorphisms, send products to composites, and intertwine the
    restriction maps of the system.
    """

    def __init__(self, system: CoefficientSystem, pi: FiniteGroup,
                 phi: dict[tuple[str, str], AbHom], check: bool = True):
        self.system = system
        self.pi = pi
        self.phi = phi
        if check:
            self.validate()

    def act(self, subgroup_key: str, elem: str) -> AbHom:
        return self.phi[(subgroup_key, elem)]

    def act_inv(self, subgroup_key: str, elem: str) -> AbHom:
        return self.phi[(subgroup_key, self.pi.inv(elem))]

    def validate(self):
        cat = self.system.cat
        for s in cat.subgroups:
            val = self.system.values[s.key]
            ident = self.act(s.key, self.pi.identity)
            if not ident.equal_as_maps(AbHom.identity(val)):
                raise ValueError(f"identity of pi acts nontrivially at {s.key}")
            for u in self.pi.names:
                h = self.act(s.key, u)
                if h.source is not val or h.target is not val:
                    raise ValueError(f"action at {s.key} has wrong endpoints")
                for v in self.pi.names:
                    lhs = self.act(s.key, u).compose(self.act(s.key, v))
                    if not lhs.equal_as_maps(self.act(s.key,
                                                      self.pi.mul(u, v))):
                        raise ValueError(
                            f"action at {s.key} is not a homomorphism")
            for u in self.pi.names:
                comp = self.act(s.key, u).compose(
                    self.act(s.key, self.pi.inv(u)))
                if not comp.equal_as_maps(AbHom.identity(val)):
                    raise ValueError(f"{u} does not act invertibly at {s.key}")
        for m in cat.all_morphisms():
            res = self.system.maps[m.key]
            for u in self.pi.names:
                lhs = self.act(m.src.key, u).compose(res)
                rhs = res.compose(self.act(m.tgt.key, u))
                if not lhs.equal_as_maps(rhs):
                    raise ValueError(
                        f"action fails to commute with restriction at {m.key}")

    @classmethod
    def trivial(cls, system: CoefficientSystem, pi: FiniteGroup) -> "LocalSystem":
        phi = {}
        for s in system.cat.subgroups:
            ident = AbHom.identity(system.values[s.key])
            for u in pi.names:
                phi[(s.key, u)] = ident
        return cls(system, pi, phi, check=False)

    @classmethod
    def from_json(cls, system: CoefficientSystem, pi: FiniteGroup,
                  data: dict) -> "LocalSystem":
        phi = {}
        for s in system.cat.subgroups:
            val = system.values[s.key]
            per = data["phi"].get(s.key, {})
            for u in pi.names:
                if u in per:
                    mat = IntMatrix([list(r) for r in per[u]], val.ngens)
                    phi[(s.key, u)] = AbHom(val, val, mat)
                elif u == pi.identity:
                    phi[(s.key, u)] = AbHom.identity(val)
                else:
                    raise ValueError(f"no action matrix for {u} at {s.key}")
        return cls(system, pi, phi)
