"""Finite groups, their subgroups, and the category of orbits.

Groups are multiplication tables over named elements.  A morphism of
orbits G/H -> G/K is a coset gK with g^-1 H g contained in K; it is
stored with a canonical representative, the element of least table
index in the coset, so that morphisms can be dict keys.  Composition
of G/H -> G/K -> G/L sends the representatives to their product.

The orbit category is built on table indices, not names: subgroups are
frozensets of indices, the conjugates g^-1 H g are computed once per
(H, g), and the containment test is a frozenset comparison.  Each
morphism is filed under the least index of its coset, so looking one
up from any representative (`coset_morphism`, `identity`, `compose`)
takes two table lookups and builds nothing.
"""

from __future__ import annotations


class FiniteGroup:
    """Multiplication table on named elements."""

    def __init__(self, names: list[str], table: list[list[int]],
                 check: bool = True):
        self.names = list(names)
        self.index = {n: k for k, n in enumerate(self.names)}
        if len(self.index) != len(self.names):
            raise ValueError("duplicate element names")
        t = self.table = [list(row) for row in table]
        n = len(self.names)
        if len(t) != n or any(len(row) != n for row in t):
            raise ValueError(f"table must be {n} x {n} for {n} elements")
        if any(type(x) is not int or not 0 <= x < n for row in t for x in row):
            raise ValueError(f"table entries must be integers in 0..{n - 1}")
        ident = next((k for k in range(n)
                      if all(t[k][j] == j == t[j][k] for j in range(n))), None)
        if ident is None:
            raise ValueError("table has no identity")
        self.identity_index = ident
        self.identity = self.names[ident]
        if any(ident not in row for row in t):
            raise ValueError("table has a non-invertible element")
        self._inv = [row.index(ident) for row in t]
        if check and any(t[t[a][b]][c] != t[a][t[b][c]] for a in range(n)
                         for b in range(n) for c in range(n)):
            raise ValueError("table is not associative")

    @property
    def order(self) -> int:
        return len(self.names)

    def mul(self, a: str, b: str) -> str:
        return self.names[self.table[self.index[a]][self.index[b]]]

    def inv(self, a: str) -> str:
        return self.names[self._inv[self.index[a]]]

    @classmethod
    def trivial(cls) -> "FiniteGroup":
        return cls(["e"], [[0]], check=False)

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        if n < 1:
            raise ValueError("order must be positive")
        names = ["e"] + [f"t{k}" if k > 1 else "t" for k in range(1, n)]
        table = [[(a + b) % n for b in range(n)] for a in range(n)]
        return cls(names, table, check=False)

    @classmethod
    def symmetric3(cls) -> "FiniteGroup":
        perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1),
                 (1, 0, 2), (0, 2, 1), (2, 1, 0)]
        names = ["e", "r", "r2", "s", "sr", "sr2"]
        def comp(p, q):  # p after q
            return tuple(p[q[k]] for k in range(3))
        table = [[perms.index(comp(p, q)) for q in perms] for p in perms]
        return cls(names, table, check=False)

    def to_json(self) -> dict:
        return {"elements": list(self.names),
                "table": [list(r) for r in self.table]}

    @classmethod
    def from_json(cls, data: dict) -> "FiniteGroup":
        names = data["elements"]
        if type(names) is not list or any(type(n) is not str for n in names):
            raise ValueError("group 'elements' must be a JSON list of strings")
        return cls(names, [list(r) for r in data["table"]])

    def __repr__(self) -> str:
        return f"FiniteGroup<order {self.order}>"


def subgroup_key(members: set[str] | frozenset[str]) -> str:
    return ",".join(sorted(members))


class Subgroup:
    __slots__ = ("group", "members", "key")

    def __init__(self, group: FiniteGroup, members: frozenset[str]):
        self.group = group
        self.members = members
        self.key = subgroup_key(members)

    @property
    def order(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return f"Subgroup<{self.key}>"


def all_subgroups(g: FiniteGroup) -> list[Subgroup]:
    """Every subgroup, by Neubüser's cyclic extension method.

    Each subgroup <h1, ..., hk> ends the chain <h1>, <h1, h2>, ..., so
    joining each new subgroup with each cyclic subgroup it lacks, layer
    by layer, reaches all: one index closure per such pair.
    """
    def closure(gens: tuple[int, ...]) -> frozenset[int]:
        members, frontier = {g.identity_index}, [g.identity_index]
        for a in frontier:
            row = g.table[a]
            for s in gens:
                if row[s] not in members:
                    members.add(row[s])
                    frontier.append(row[s])
        return frozenset(members)

    # subgroup (as indices) -> a generating tuple
    cyclic = {closure((x,)): (x,) for x in range(g.order)}
    found, layer = dict(cyclic), cyclic
    while layer:
        joins = {}
        for members, gens in layer.items():
            for (x,) in cyclic.values():
                if x not in members:
                    joins.setdefault(closure(gens + (x,)), gens + (x,))
        layer = {h: gens for h, gens in joins.items() if h not in found}
        found.update(layer)
    return sorted((Subgroup(g, frozenset(g.names[k] for k in h))
                   for h in found), key=lambda s: (s.order, s.key))


class OrbitMorphism:
    """Morphism of orbits G/src -> G/tgt, i.e. a coset g*tgt with
    g^-1 (src) g inside tgt."""

    __slots__ = ("group", "src", "tgt", "coset", "rep", "key")

    def __init__(self, group: FiniteGroup, src: Subgroup, tgt: Subgroup,
                 coset: frozenset[str]):
        self.group = group
        self.src = src
        self.tgt = tgt
        self.coset = coset
        self.rep = min(coset, key=lambda n: group.index[n])
        self.key = f"{src.key}|{tgt.key}|{self.rep}"

    def is_identity(self) -> bool:
        return self.src is self.tgt and self.coset == self.src.members

    def __repr__(self) -> str:
        return f"OrbitMorphism<{self.key}>"


class OrbitCategory:
    """All orbits of a finite group and the maps between them.

    The category works on table indices.  For each target K it keeps
    `low[K][g]`, the least index in the coset gK, which is the canonical
    representative of gK.  For each source H the conjugates g^-1 H g
    are computed once per g, as frozensets of indices; whether
    g^-1 H g <= K holds for all of gK or for none, so it is tested on
    the representatives alone.  The morphisms G/H -> G/K sit in
    `at[(H, K)]` under their representatives, in increasing order, so
    `coset_morphism`, `identity` and `compose` are two lookups each,
    and a coset that is no morphism raises KeyError.

    >>> cat = OrbitCategory(FiniteGroup.cyclic(2))
    >>> [len(cat.hom(h, k)) for h in ("e", "e,t") for k in ("e", "e,t")]
    [2, 1, 0, 1]
    >>> flip = cat.coset_morphism(cat.by_key["e"], cat.by_key["e"], "t")
    >>> cat.compose(flip, flip).key, cat.compose(flip, flip).is_identity()
    ('e|e|e', True)
    """

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.subgroups = all_subgroups(group)
        self.by_key = {s.key: s for s in self.subgroups}
        t, inv, index = group.table, group._inv, group.index
        members = {s.key: frozenset(index[x] for x in s.members)
                   for s in self.subgroups}
        self._low = {k: [min(row[x] for x in ks) for row in t]
                     for k, ks in members.items()}
        self._at: dict[tuple[str, str], dict[int, OrbitMorphism]] = {}
        self._morphisms: dict[str, OrbitMorphism] = {}
        for src in self.subgroups:
            hs = members[src.key]
            conj = [frozenset(t[inv[g]][t[h][g]] for h in hs)
                    for g in range(group.order)]
            for tgt in self.subgroups:
                ks = members[tgt.key]
                at = self._at[(src.key, tgt.key)] = {}
                for r in sorted(set(self._low[tgt.key])):
                    if conj[r] <= ks:
                        coset = frozenset(group.names[t[r][k]] for k in ks)
                        m = at[r] = OrbitMorphism(group, src, tgt, coset)
                        self._morphisms[m.key] = m
        self._sorted = [self._morphisms[k] for k in sorted(self._morphisms)]

    def hom(self, src_key: str, tgt_key: str) -> list[OrbitMorphism]:
        return list(self._at[(src_key, tgt_key)].values())

    def identity(self, key: str) -> OrbitMorphism:
        return self._by_index(key, key, self.group.identity_index)

    def _by_index(self, src_key: str, tgt_key: str, g: int) -> OrbitMorphism:
        return self._at[(src_key, tgt_key)][self._low[tgt_key][g]]

    def coset_morphism(self, src: Subgroup, tgt: Subgroup,
                       gname: str) -> OrbitMorphism:
        return self._by_index(src.key, tgt.key, self.group.index[gname])

    def compose(self, f: OrbitMorphism, h: OrbitMorphism) -> OrbitMorphism:
        """h o f for f: G/H -> G/K, h: G/K -> G/L."""
        if f.tgt.key != h.src.key:
            raise ValueError("morphisms do not compose")
        index = self.group.index
        return self._by_index(f.src.key, h.tgt.key,
                              self.group.table[index[f.rep]][index[h.rep]])

    def all_morphisms(self) -> list[OrbitMorphism]:
        return list(self._sorted)

    def composable_pairs(self):
        for f in self._sorted:
            for tgt in self.subgroups:
                for h in self._at[(f.tgt.key, tgt.key)].values():
                    yield f, h
