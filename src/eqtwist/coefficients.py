"""Coefficient systems on the orbit category and their group actions.

A coefficient system assigns an abelian group to each orbit and a
homomorphism, contravariantly, to each orbit morphism.  A local system
additionally carries an action of a fixed finite group on every value,
compatible with the restriction maps; that action is what twists the
cochain differentials downstream.
"""

from __future__ import annotations

from .abgroups import AbHom, FgAbGroup
from .groups import FiniteGroup, OrbitCategory, OrbitMorphism
from .intmat import IntMatrix
from .reader import NATURAL, OBJECT, ROWS, entries, expect, known


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
        ident = AbHom.identity(a)
        maps = {m.key: ident for m in cat.all_morphisms()}
        return cls(cat, values, maps, check=False)

    @classmethod
    def from_json(cls, cat: OrbitCategory, data: dict) -> "CoefficientSystem":
        if "constant" in data:
            known(data, ("constant",), "coefficient")
            a = group_from_json(expect(data, "constant", OBJECT, "coefficient"),
                                "coefficient 'constant'")
            return cls.constant(cat, a)
        known(data, ("values", "maps"), "coefficient")
        values_data = expect(data, "values", OBJECT, "coefficient")
        for key, _v in entries(values_data, OBJECT, "coefficient 'values'"):
            if key not in cat.by_key:
                raise ValueError(
                    f"coefficient 'values' key {key!r} names no subgroup")
        values = {s.key: group_from_json(
            expect(values_data, s.key, OBJECT, "coefficient 'values'"),
            f"coefficient 'values' key {s.key!r}") for s in cat.subgroups}
        # morphism key -> (the file's key for it, its matrix rows); a file
        # may name a morphism by any representative of its coset
        given = {}
        for key, rows in entries(expect(data, "maps", OBJECT, "coefficient",
                                        {}), ROWS, "coefficient 'maps'"):
            m = _morphism_named(cat, key)
            if m is None:
                raise ValueError(
                    f"coefficient 'maps' key {key!r} names no morphism")
            first = given.setdefault(m.key, (key, rows))
            if first[1] != rows:
                raise ValueError(
                    f"coefficient 'maps' keys {first[0]!r} and {key!r} give "
                    f"the morphism {m.key} two matrices")
        maps = {}
        for m in cat.all_morphisms():
            if m.key in given:
                key, rows = given[m.key]
                maps[m.key] = hom_from_json(
                    rows, values[m.tgt.key], values[m.src.key],
                    f"coefficient 'maps' key {key!r}")
            elif m.is_identity():
                maps[m.key] = AbHom.identity(values[m.src.key])
            else:
                raise ValueError(f"no map supplied for morphism {m.key}")
        return cls(cat, values, maps)


def _morphism_named(cat: OrbitCategory, key: str) -> OrbitMorphism | None:
    """The morphism "H|K|g" names, g any member of its coset, or None."""
    parts = key.split("|")
    if len(parts) != 3 or parts[0] not in cat.by_key or \
            parts[1] not in cat.by_key or parts[2] not in cat.group.index:
        return None
    try:
        return cat.coset_morphism(cat.by_key[parts[0]], cat.by_key[parts[1]],
                                  parts[2])
    except KeyError:  # g^-1 H g is not inside K
        return None


def group_from_json(data: dict, where: str) -> FgAbGroup:
    """The group {gens, rels} of a coefficient file, read at `where`,
    the path that errors name: rels has one row per generator and one
    column per relation."""
    known(data, ("gens", "rels"), where)
    gens = expect(data, "gens", NATURAL, where)
    rels = expect(data, "rels", ROWS, where, [])
    if rels and len(rels) != gens:
        raise ValueError(f"{where} 'rels' must have one row per generator")
    try:
        return FgAbGroup.from_relations(gens, rels)
    except ValueError as ex:
        raise ValueError(f"{where} 'rels': {ex}") from ex


def hom_from_json(rows, source: FgAbGroup, target: FgAbGroup,
                  where: str) -> AbHom:
    """The hom whose matrix rows a file gives at `where`, the key that
    errors name."""
    try:
        return AbHom(source, target, IntMatrix(rows, source.ngens))
    except ValueError as ex:
        raise ValueError(f"{where}: {ex}") from ex


class LocalSystem:
    """Coefficient system with an action of a finite group on each value.

    phi[(subgroup key, element name)] is the automorphism by which that
    element acts on the value at the orbit.  e must act as the identity,
    products as composites, intertwining the restriction maps; then
    act(u) act(u^-1) = act(e) = id, so every element acts invertibly.
    """

    def __init__(self, system: CoefficientSystem, pi: FiniteGroup,
                 phi: dict[tuple[str, str], AbHom]):
        self.system = system
        self.pi = pi
        self.phi = phi
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
        for m in cat.all_morphisms():
            res = self.system.maps[m.key]
            for u in self.pi.names:
                lhs = self.act(m.src.key, u).compose(res)
                rhs = res.compose(self.act(m.tgt.key, u))
                if not lhs.equal_as_maps(rhs):
                    raise ValueError(
                        f"action fails to commute with restriction at {m.key}")

    @classmethod
    def from_json(cls, system: CoefficientSystem, pi: FiniteGroup,
                  data: dict) -> "LocalSystem":
        known(data, ("phi",), "action")
        phi = {}
        for key, per in entries(expect(data, "phi", OBJECT, "action"),
                                OBJECT, "action 'phi'"):
            if key not in system.values:
                raise ValueError(f"action 'phi' key {key!r} names no subgroup")
            val = system.values[key]
            for u, rows in entries(per, ROWS, "action 'phi'", key):
                if u not in pi.index:
                    raise ValueError(f"action 'phi' key {u!r} at {key!r} "
                                     f"names no element of pi")
                phi[(key, u)] = hom_from_json(
                    rows, val, val, f"action 'phi' key {u!r} at {key!r}")
        for s in system.cat.subgroups:
            phi.setdefault((s.key, pi.identity),
                           AbHom.identity(system.values[s.key]))
            for u in pi.names:
                if (s.key, u) not in phi:
                    raise ValueError(f"no action matrix for {u} at {s.key}")
        return cls(system, pi, phi)
