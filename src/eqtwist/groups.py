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
up from any representative takes two table lookups and builds nothing:
`by_index` does so from a table index, and `coset_morphism`, `identity`
and `compose` go through it.
"""

from __future__ import annotations

from .reader import ROWS, STRINGS, expect, known


class FiniteGroup:
    """Multiplication table on named elements."""

    def __init__(self, names: list[str], table: list[list[int]],
                 check: bool = True):
        self.names = list(names)
        self.index = {n: k for k, n in enumerate(self.names)}
        if len(self.index) != len(self.names):
            raise ValueError("elements repeat a name")
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
    def from_json(cls, data: dict, where: str = "group") -> "FiniteGroup":
        """The group an object of a file describes; `where` names it in
        the errors, as "complex 'group'" or "twist 'pi'"."""
        known(data, ("elements", "table"), where)
        names = expect(data, "elements", STRINGS, where)
        table = expect(data, "table", ROWS, where)
        try:
            return cls(names, table)
        except ValueError as ex:  # its message opens with the key
            key, rest = str(ex).split(" ", 1)
            raise ValueError(f"{where} {key!r} {rest}") from ex

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
    g^-1 (src) g inside tgt; rep is its element of least table index."""

    __slots__ = ("src", "tgt", "coset", "rep", "key")

    def __init__(self, src: Subgroup, tgt: Subgroup, coset: frozenset[str],
                 rep: str):
        self.src = src
        self.tgt = tgt
        self.coset = coset
        self.rep = rep
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
    `by_index` is two lookups, and a coset that is no morphism raises
    KeyError.  A caller holding table indices, as a coboundary does for
    the transporters of faces, calls `by_index` itself; `coset_morphism`,
    `identity` and `compose` go through it from names and morphisms.

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
        # the coset representatives of each target, in increasing order
        reps = {k: sorted(set(low)) for k, low in self._low.items()}
        self._at: dict[tuple[str, str], dict[int, OrbitMorphism]] = {}
        self._morphisms: dict[str, OrbitMorphism] = {}
        for src in self.subgroups:
            hs = members[src.key]
            conj = [frozenset(t[inv[g]][t[h][g]] for h in hs)
                    for g in range(group.order)]
            for tgt in self.subgroups:
                ks = members[tgt.key]
                at = self._at[(src.key, tgt.key)] = {}
                for r in reps[tgt.key]:
                    if conj[r] <= ks:
                        coset = frozenset(group.names[t[r][k]] for k in ks)
                        m = at[r] = OrbitMorphism(src, tgt, coset,
                                                  group.names[r])
                        self._morphisms[m.key] = m
        self._sorted = [self._morphisms[k] for k in sorted(self._morphisms)]

    def hom(self, src_key: str, tgt_key: str) -> list[OrbitMorphism]:
        return list(self._at[(src_key, tgt_key)].values())

    def identity(self, key: str) -> OrbitMorphism:
        return self.by_index(key, key, self.group.identity_index)

    def by_index(self, src_key: str, tgt_key: str, g: int) -> OrbitMorphism:
        """The morphism G/src -> G/tgt of the coset g*tgt, for the
        element of table index g."""
        return self._at[(src_key, tgt_key)][self._low[tgt_key][g]]

    def coset_morphism(self, src: Subgroup, tgt: Subgroup,
                       gname: str) -> OrbitMorphism:
        return self.by_index(src.key, tgt.key, self.group.index[gname])

    def compose(self, f: OrbitMorphism, h: OrbitMorphism) -> OrbitMorphism:
        """h o f for f: G/H -> G/K, h: G/K -> G/L."""
        if f.tgt.key != h.src.key:
            raise ValueError("morphisms do not compose")
        index = self.group.index
        return self.by_index(f.src.key, h.tgt.key,
                             self.group.table[index[f.rep]][index[h.rep]])

    def all_morphisms(self) -> list[OrbitMorphism]:
        return list(self._sorted)

    def composable_pairs(self):
        """Every (f, h) with h o f defined: f in `all_morphisms` order,
        then h by its target in subgroup order, then in `hom` order."""
        for f, h, _ in self.composites(self.by_key.keys()):
            yield f, h

    def composites(self, ends):
        """(f, h, h o f) for the pairs (f, h) of `composable_pairs`, in
        its order, whose h ends at a subgroup with its key in `ends`; the
        composite is found by table index."""
        t, index = self.group.table, self.group.index
        last = [tgt for tgt in self.subgroups if tgt.key in ends]
        for f in self._sorted:
            row = t[index[f.rep]]
            for tgt in last:
                low, at = self._low[tgt.key], self._at[(f.src.key, tgt.key)]
                for r, h in self._at[(f.tgt.key, tgt.key)].items():
                    yield f, h, at[low[row[r]]]
