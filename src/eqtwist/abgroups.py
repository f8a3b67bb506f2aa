"""Finitely generated abelian groups given by integer presentations.

A group is Z^n modulo the column span of a relation matrix.  The Smith
normal form of the relations yields the invariant-factor normal form
(free rank plus a divisibility chain of torsion coefficients) together
with a unimodular change of basis, which gives every group a canonical
coordinate system for element arithmetic and enumeration.

Each group runs one elimination, when it is built: the Smith normal
form u*rels*v = d returns u and its inverse together, so canonical
coordinates (u*x reduced modulo the diagonal of d) and representatives
(uinv*y) cost a matrix-vector product each.  Membership needs no further
elimination either: since u*im(rels) = im(d), a vector x lies in
im(rels) exactly when its canonical form `from_vector(x)` is zero.  That
test checks that homomorphisms respect relations, compares maps, and so
checks d o d = 0 in every cochain complex.

Homomorphisms are integer matrices on generators, checked to respect
relations at construction time.  Kernels, cokernels and subquotients
are computed by integer kernel calculations, so cohomology of cochain
complexes whose terms themselves carry torsion comes out exactly.

Work is bounded in one place: inside a `column_budget(limit)` block,
every `direct_sum` counts its generator columns before its Smith normal
form runs, and raises `BudgetExceeded` once the count passes the limit.

>>> z6a = FgAbGroup.from_relations(1, [[6]])
>>> z6b = FgAbGroup.from_relations(2, [[2, 0], [0, 3]])
>>> z6a.normal_form() == z6b.normal_form()
True
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
from typing import Iterable, Iterator, Sequence

from .intmat import IntMatrix, kernel_basis, smith_normal_form, solve


class FgAbGroup:
    """Finitely generated abelian group Z^ngens / im(rels)."""

    __slots__ = ("ngens", "rels", "_moduli", "_u", "_uinv")

    def __init__(self, ngens: int, rels: IntMatrix):
        if rels.nrows != ngens:
            raise ValueError("relation matrix must have one row per generator")
        self.ngens = ngens
        self.rels = rels
        d, self._u, _v, self._uinv = smith_normal_form(rels)
        k = min(ngens, rels.ncols)
        moduli = [d.rows[i][i] if i < k else 0 for i in range(ngens)]
        self._moduli = tuple(moduli)

    @classmethod
    def from_relations(cls, ngens: int, rel_rows: Iterable[Iterable[int]]) -> "FgAbGroup":
        rows = [list(r) for r in rel_rows]
        if rows:
            return cls(ngens, IntMatrix(rows))
        return cls(ngens, IntMatrix.zeros(ngens, 0))

    @classmethod
    def free(cls, n: int) -> "FgAbGroup":
        return cls(n, IntMatrix.zeros(n, 0))

    @classmethod
    def cyclic(cls, d: int) -> "FgAbGroup":
        return cls(1, IntMatrix([[d]]))

    @classmethod
    def trivial(cls) -> "FgAbGroup":
        return cls(0, IntMatrix.zeros(0, 0))

    # normal form ----------------------------------------------------

    @property
    def rank(self) -> int:
        return sum(1 for m in self._moduli if m == 0)

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(m for m in self._moduli if m >= 2)

    def normal_form(self) -> tuple[int, tuple[int, ...]]:
        return (self.rank, self.torsion)

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    @property
    def is_finite(self) -> bool:
        return self.rank == 0

    def order(self) -> int:
        if not self.is_finite:
            raise ValueError("group is infinite")
        n = 1
        for m in self.torsion:
            n *= m
        return n

    def describe(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"C{m}" for m in self.torsion)
        return " x ".join(parts) if parts else "0"

    # element arithmetic in canonical coordinates --------------------

    def reduce(self, y: Sequence[int]) -> tuple[int, ...]:
        return tuple(
            (int(a) % m) if m > 0 else int(a) for a, m in zip(y, self._moduli)
        )

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.ngens

    def from_vector(self, x: Sequence[int]) -> tuple[int, ...]:
        """Canonical form of the element with generator coordinates x;
        it is zero exactly when x lies in im(rels)."""
        return self.reduce(self._u.apply(x))

    def to_vector(self, y: Sequence[int]) -> tuple[int, ...]:
        """One generator-coordinate representative of a canonical element."""
        return self._uinv.apply(y)

    def add(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        return self.reduce([x + y for x, y in zip(a, b)])

    def neg(self, a: Sequence[int]) -> tuple[int, ...]:
        return self.reduce([-x for x in a])

    def elements(self) -> list[tuple[int, ...]]:
        """All elements in canonical coordinates; finite groups only."""
        if not self.is_finite:
            raise ValueError("cannot enumerate an infinite group")
        ranges = [range(m) if m > 0 else range(1) for m in self._moduli]
        return [tuple(t) for t in itertools.product(*ranges)]

    def __repr__(self) -> str:
        return f"FgAbGroup<{self.describe()}>"


class AbHom:
    """Homomorphism between presented groups, as a matrix on generators."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FgAbGroup, target: FgAbGroup, matrix: IntMatrix,
                 check: bool = True):
        if matrix.nrows != target.ngens or matrix.ncols != source.ngens:
            raise ValueError("matrix shape must be target.ngens x source.ngens")
        self.source = source
        self.target = target
        self.matrix = matrix
        if check and source.rels.ncols:
            carried = matrix @ source.rels
            if any(any(target.from_vector(c)) for c in carried.cols()):
                raise ValueError("matrix does not respect source relations")

    @classmethod
    def identity(cls, g: FgAbGroup) -> "AbHom":
        return cls(g, g, IntMatrix.identity(g.ngens), check=False)

    @classmethod
    def zero(cls, source: FgAbGroup, target: FgAbGroup) -> "AbHom":
        return cls(source, target, IntMatrix.zeros(target.ngens, source.ngens),
                   check=False)

    def compose(self, first: "AbHom") -> "AbHom":
        """self o first, with first applied first."""
        if first.target is not self.source and first.target.ngens != self.source.ngens:
            raise ValueError("composition shape mismatch")
        return AbHom(first.source, self.target, self.matrix @ first.matrix,
                     check=False)

    def apply(self, elem: Sequence[int]) -> tuple[int, ...]:
        x = self.source.to_vector(elem)
        return self.target.from_vector(self.matrix.apply(x))

    def equal_as_maps(self, other: "AbHom") -> bool:
        if self.matrix.ncols != other.matrix.ncols:
            return False
        diff = self.matrix - other.matrix
        return not any(any(self.target.from_vector(c)) for c in diff.cols())

    @property
    def is_zero_map(self) -> bool:
        return self.equal_as_maps(AbHom.zero(self.source, self.target))

    def preimage(self, vec: Sequence[int]) -> tuple[int, ...] | None:
        """Generator coordinates x with self(x) = vec modulo the target's
        relations, or None if vec is outside the image."""
        big = IntMatrix.hstack([self.matrix, self.target.rels])
        x = solve(big, list(vec))
        return None if x is None else x[: self.source.ngens]

    def kernel(self) -> tuple[FgAbGroup, "AbHom"]:
        """Kernel subgroup with its inclusion into the source."""
        big = IntMatrix.hstack([self.matrix, self.target.rels])
        vecs = [v[: self.source.ngens] for v in kernel_basis(big)]
        vecs = [v for v in vecs if any(v)]
        return subgroup_from_generators(self.source, vecs)

    def cokernel(self) -> FgAbGroup:
        rels = IntMatrix.hstack([self.target.rels, self.matrix])
        return FgAbGroup(self.target.ngens, rels)

    def is_iso(self) -> bool:
        k, _ = self.kernel()
        return k.is_trivial and self.cokernel().is_trivial

    def inverse(self) -> "AbHom":
        """Two-sided inverse of an isomorphism, found by integer solving."""
        big = IntMatrix.hstack([self.matrix, self.target.rels])
        x = solve(big, IntMatrix.identity(self.target.ngens))
        if x is None:
            raise ValueError("homomorphism is not invertible")
        inv = AbHom(self.target, self.source,
                    IntMatrix(x.rows[: self.source.ngens], x.ncols),
                    check=False)
        if not inv.compose(self).equal_as_maps(AbHom.identity(self.source)):
            raise ValueError("homomorphism is not invertible")
        return inv

    def factor_through(self, incl: "AbHom") -> "AbHom":
        """Write self as incl o h; requires the image to lie in incl's image."""
        if incl.target.ngens != self.target.ngens:
            raise ValueError("codomain mismatch")
        big = IntMatrix.hstack([incl.matrix, self.target.rels])
        x = solve(big, self.matrix)
        if x is None:
            raise ValueError("map does not factor through the subgroup")
        return AbHom(self.source, incl.source,
                     IntMatrix(x.rows[: incl.source.ngens], x.ncols),
                     check=False)

    def __repr__(self) -> str:
        return f"AbHom<{self.source.describe()} -> {self.target.describe()}>"


def subgroup_from_generators(
    g: FgAbGroup, vectors: Sequence[Sequence[int]]
) -> tuple[FgAbGroup, AbHom]:
    """Subgroup of g generated by elements with the given generator coords."""
    t = len(vectors)
    kmat = IntMatrix.from_cols(vectors, g.ngens) if t else IntMatrix.zeros(g.ngens, 0)
    if t:
        big = IntMatrix.hstack([kmat, g.rels])
        rel_cols = [v[:t] for v in kernel_basis(big)]
        rel_cols = [c for c in rel_cols if any(c)]
        sub = FgAbGroup(t, IntMatrix.from_cols(rel_cols, t) if rel_cols
                        else IntMatrix.zeros(t, 0))
    else:
        sub = FgAbGroup.trivial()
    return sub, AbHom(sub, g, kmat, check=False)


class Subquotient:
    """ker(out)/im(inc) at a fixed term of a cochain complex.

    group       the subquotient as an abstract group
    rep_vectors generator-coordinate representatives in the ambient term,
                one per generator of `group`
    """

    __slots__ = ("group", "rep_vectors")

    def __init__(self, group: FgAbGroup, rep_vectors: list[tuple[int, ...]]):
        self.group = group
        self.rep_vectors = rep_vectors


def cohomology_at(
    at: FgAbGroup,
    incoming: AbHom | None,
    outgoing: AbHom | None,
) -> Subquotient:
    """Cohomology ker(outgoing)/im(incoming) at the group `at`.

    Either map may be None, meaning the zero map.  When both are present
    their composite must vanish.
    """
    if incoming is not None and outgoing is not None:
        if not outgoing.compose(incoming).is_zero_map:
            raise ValueError("not a complex: d o d != 0")
    if outgoing is not None:
        ker, incl = outgoing.kernel()
    else:
        ker, incl = at, AbHom.identity(at)
    pieces = [incl.matrix]
    if incoming is not None:
        pieces.append(incoming.matrix)
    pieces.append(at.rels)
    big = IntMatrix.hstack(pieces)
    rel_cols = [v[: ker.ngens] for v in kernel_basis(big)]
    rel_cols = [c for c in rel_cols if any(c)]
    h = FgAbGroup(ker.ngens,
                  IntMatrix.from_cols(rel_cols, ker.ngens) if rel_cols
                  else IntMatrix.zeros(ker.ngens, 0))
    return Subquotient(h, incl.matrix.cols())


class CochainComplex:
    """Nonnegatively graded complex of presented groups."""

    def __init__(self, groups: Sequence[FgAbGroup], diffs: Sequence[AbHom | None]):
        # diffs[n] maps groups[n] -> groups[n+1]; trailing None entries allowed
        self.groups = list(groups)
        self.diffs = list(diffs)
        for n, d in enumerate(self.diffs):
            if d is None:
                continue
            if d.source is not self.groups[n] or d.target is not self.groups[n + 1]:
                raise ValueError(f"differential {n} endpoints disagree")
            if n + 1 < len(self.diffs) and self.diffs[n + 1] is not None:
                if not self.diffs[n + 1].compose(d).is_zero_map:
                    raise ValueError(f"d o d != 0 at degree {n}")

    def cohomology(self, n: int) -> Subquotient:
        incoming = self.diffs[n - 1] if n >= 1 else None
        outgoing = self.diffs[n] if n < len(self.diffs) else None
        return cohomology_at(self.groups[n], incoming, outgoing)


class BudgetExceeded(Exception):
    """Not a ValueError, which callers read as a failed check."""


# [count, limit] of the innermost column_budget block, or None
_BUDGET = contextvars.ContextVar("column_budget", default=None)


@contextlib.contextmanager
def column_budget(limit: int) -> Iterator[None]:
    """Bound the generator columns of the direct sums built in the block."""
    token = _BUDGET.set([0, limit])
    try:
        yield
    finally:
        _BUDGET.reset(token)


def direct_sum(groups: Sequence[FgAbGroup]) -> tuple[FgAbGroup, list[int]]:
    """Direct sum with generator offsets of each summand."""
    offsets = []
    pos = 0
    for g in groups:
        offsets.append(pos)
        pos += g.ngens
    budget = _BUDGET.get()
    if budget is not None:
        budget[0] += pos
        if budget[0] > budget[1]:
            raise BudgetExceeded(
                f"direct sums reached {budget[0]} generator columns, "
                f"budget is {budget[1]}")
    rels = IntMatrix.block_diag([g.rels for g in groups]) if groups \
        else IntMatrix.zeros(0, 0)
    return FgAbGroup(pos, rels), offsets


def assemble_hom(
    source_groups: Sequence[FgAbGroup],
    target_groups: Sequence[FgAbGroup],
    blocks: Iterable[tuple[tuple[int, int], IntMatrix]],
    source_sum: FgAbGroup | None = None,
    target_sum: FgAbGroup | None = None,
) -> AbHom:
    """Hom between direct sums from sparse ((target_i, source_j), block)
    pairs; blocks that share a key are added."""
    if source_sum is None:
        source_sum, _ = direct_sum(source_groups)
    if target_sum is None:
        target_sum, _ = direct_sum(target_groups)
    soff = []
    pos = 0
    for g in source_groups:
        soff.append(pos)
        pos += g.ngens
    toff = []
    pos = 0
    for g in target_groups:
        toff.append(pos)
        pos += g.ngens
    mat = [[0] * source_sum.ngens for _ in range(target_sum.ngens)]
    for (ti, sj), b in blocks:
        if b.nrows != target_groups[ti].ngens or b.ncols != source_groups[sj].ngens:
            raise ValueError("block shape mismatch")
        for r in range(b.nrows):
            for c in range(b.ncols):
                mat[toff[ti] + r][soff[sj] + c] += b.rows[r][c]
    return AbHom(source_sum, target_sum, IntMatrix(mat, source_sum.ngens),
                 check=False)


def enumerate_automorphisms(g: FgAbGroup) -> list[AbHom] | None:
    """All automorphisms when enumerable, else None.

    Finite groups are enumerated outright.  Z and the trivial group are
    handled as special cases; other infinite groups return None.
    """
    if g.is_trivial:
        return [AbHom.identity(g)]
    if g.is_finite:
        els = g.elements()
        out = []
        for images in itertools.product(els, repeat=g.ngens):
            cols = [g.to_vector(e) for e in images]
            mat = IntMatrix.from_cols(cols, g.ngens)
            try:
                h = AbHom(g, g, mat, check=True)
            except ValueError:
                continue
            seen = {h.apply(e) for e in els}
            if len(seen) == len(els):
                out.append(h)
        return out
    if g.rank == 1 and not g.torsion:
        return [AbHom.identity(g), AbHom(g, g, IntMatrix([[-1]]), check=False)]
    return None
