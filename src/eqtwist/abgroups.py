"""Finitely generated abelian groups given by integer presentations.

A group is Z^n modulo the column span of a relation matrix.  The Smith
normal form of the relations yields the invariant-factor normal form
(free rank plus a divisibility chain of torsion coefficients) together
with a unimodular change of basis, which gives every group a canonical
coordinate system for element arithmetic and enumeration.

Each group runs one elimination, on the first read of its coordinates:
the Smith normal form u*rels*v = d returns u and its inverse together,
so canonical coordinates (u*x reduced modulo the diagonal of d) and
representatives (uinv*y) cost a matrix-vector product each.  A group
that only lends its relations to a larger computation, as the cochain
groups of a complex do, is never eliminated.  Membership needs no further
elimination either: since u*im(rels) = im(d), a vector x lies in
im(rels) exactly when its canonical form `from_vector(x)` is zero.  That
test checks that homomorphisms respect relations, compares maps, and so
checks d o d = 0 in every cochain complex.

Homomorphisms are integer matrices on generators, checked to respect
relations at construction time.  Kernels, cokernels and subquotients
are computed by integer kernel calculations, so cohomology of cochain
complexes whose terms themselves carry torsion comes out exactly.  One
kernel step serves kernels, subgroups and subquotients alike: the
x with a*x in im(extra) are generated by the a-parts of a basis of
ker [a | extra].  Cohomology at a term runs it twice and one Smith
normal form: the first gives generators K of the cocycles, the second
the relations of H among them, and the SNF presents H.  The cocycle
group itself is never presented, and `is_iso` tests injectivity by
membership of K instead.  A matrix with no entry is the zero map and
needs no elimination: when the outgoing map is zero the cocycles are
the whole term, so H is the term modulo the image of the incoming map,
presented by the term's own relations when that map is zero too.  A
`CochainComplex` checks d o d = 0 for each pair once, at construction;
`cohomology_at`, called on a pair of its own, checks it there.

A `CochainComplex` runs those eliminations on a smaller complex.  On
the first `cohomology` call it cancels its unit blocks once
(`ReducedComplex`): a block of a coboundary that is +-I between two
summands with equal relations is an isomorphism, so both summands drop
out and the coboundary becomes its Schur complement.  The reduced
complex is homotopy equivalent to the original.  It is kept as
matrices, the relations of each term and the reduced coboundaries, so
it presents no group: the one Smith normal form of a degree is the one
that presents H.  Its coboundaries are often left with no entry, and
then no kernel is eliminated at all.  Representatives are mapped back
along the inclusion on their first read, so they are cocycles of the
original terms.  The two edges of a circle on two vertices cancel down
to one edge on one vertex:

>>> z = FgAbGroup.free(1)
>>> c0, c1 = direct_sum([z, z]), direct_sum([z, z])
>>> cc = CochainComplex([c0, c1],
...                     [AbHom(c0, c1, IntMatrix([[-1, 1], [-1, 1]]))])
>>> [rels.nrows for rels in cc.reduced().rels]
[1, 1]
>>> h0 = cc.cohomology(0)
>>> h0.group.describe(), h0.rep_vectors
('Z', [(1, 1)])
>>> cc.cohomology(1).group.describe()
'Z'

Work is bounded in one place: inside a `column_budget(limit)` block,
every `direct_sum` counts its generator columns as it is built, and
raises `BudgetExceeded` once the count passes the limit.

A direct sum is built without an elimination; its first `describe()`
runs the one Smith normal form, and later reads find the coordinates
already there:

>>> import eqtwist.abgroups as ab
>>> runs = []
>>> def counting(a):
...     runs.append((a.nrows, a.ncols))
...     return smith_normal_form(a)
>>> ab.smith_normal_form = counting
>>> s = direct_sum([FgAbGroup.cyclic(2), FgAbGroup.free(1)])
>>> runs
[]
>>> s.describe(), s.describe(), runs
('Z x C2', 'Z x C2', [(2, 1)])
>>> ab.smith_normal_form = smith_normal_form

>>> z6a = FgAbGroup.from_relations(1, [[6]])
>>> z6b = FgAbGroup.from_relations(2, [[2, 0], [0, 3]])
>>> z6a.normal_form() == z6b.normal_form()
True

A `DirectSum`, built by `direct_sum`, is a group that keeps its
summands and the generator offset of each.  Its block-diagonal
relations are built on their first read: the reduction of a complex
reads the summands' relations, and the d o d check reads a term's only
where a composite matrix is not zero.  Every hom between direct
sums (coboundaries, face laws, model operators) is assembled from
blocks by `assemble_hom`, which reads the layout from its two sums and
hands `IntMatrix.from_blocks` each block as it checks its shape;
`from_blocks` adds each block row into its target row, so no list of
placed blocks is built and no row list is sliced.

>>> s = direct_sum([z6a, FgAbGroup.free(2), z6b])
>>> s.offsets, s.span(2), s.describe()
([0, 1, 3], slice(3, 5, None), 'Z^2 x C6 x C6')
>>> t = direct_sum([FgAbGroup.free(1)])
>>> assemble_hom(t, s, [((0, 0), IntMatrix([[1]])),
...                     ((1, 0), IntMatrix([[2], [3]]))]).matrix.rows
((1,), (2,), (3,), (0,), (0,))
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
from typing import Iterable, Iterator, Sequence

from .intmat import (IntMatrix, _add_row, _column_index, kernel_basis,
                     smith_normal_form, solve)


class FgAbGroup:
    """Finitely generated abelian group Z^ngens / im(rels)."""

    # _moduli, _u and _uinv, the canonical coordinates, stay unset until
    # the first read of one of them runs the Smith normal form
    __slots__ = ("ngens", "rels", "_moduli", "_u", "_uinv")

    def __init__(self, ngens: int, rels: IntMatrix):
        if rels.nrows != ngens:
            raise ValueError("relation matrix must have one row per generator")
        self.ngens = ngens
        self.rels = rels

    def __getattr__(self, name: str):
        # reached only while a slot is unset: fill all three at once, so
        # that every later read is a plain slot access
        if name not in ("_moduli", "_u", "_uinv"):
            raise AttributeError(name)
        d, self._u, _v, self._uinv = smith_normal_form(self.rels)
        diag = d.diagonal()
        self._moduli = diag + (0,) * (self.ngens - len(diag))
        return getattr(self, name)

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
        if self.matrix.sparse == other.matrix.sparse:
            return True
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
        return subgroup_from_generators(
            self.source, _kernel_part(self.matrix, self.target.rels))

    def cokernel(self) -> FgAbGroup:
        rels = IntMatrix.hstack([self.target.rels, self.matrix])
        return FgAbGroup(self.target.ngens, rels)

    def is_iso(self) -> bool:
        """Injective when every kernel generator is zero in the source,
        which needs no presentation of the kernel; then surjective."""
        for v in _kernel_part(self.matrix, self.target.rels):
            if any(self.source.from_vector(v)):
                return False
        return self.cokernel().is_trivial

    def inverse(self) -> "AbHom":
        """Two-sided inverse of an isomorphism, found by integer solving."""
        big = IntMatrix.hstack([self.matrix, self.target.rels])
        x = solve(big, IntMatrix.identity(self.target.ngens))
        if x is None:
            raise ValueError("homomorphism is not invertible")
        inv = AbHom(self.target, self.source, x.top(self.source.ngens),
                    check=False)
        if not inv.compose(self).equal_as_maps(AbHom.identity(self.source)):
            raise ValueError("homomorphism is not invertible")
        return inv

    def factor_through(self, incl: "AbHom") -> "AbHom":
        """Write self as incl o h; requires the image to lie in incl's image."""
        return AbHom(self.source, incl.source,
                     _through(incl, self.target, self.matrix), check=False)

    def __repr__(self) -> str:
        return f"AbHom<{self.source.describe()} -> {self.target.describe()}>"


def factor_each(homs: Sequence[AbHom], incl: AbHom) -> list[AbHom]:
    """`factor_through(incl)` of each of homs, by one solve for all when
    they share one target, and apart otherwise."""
    if not homs:
        return []
    target = homs[0].target
    if any(h.target is not target for h in homs):
        return [h.factor_through(incl) for h in homs]
    cols = _through(incl, target,
                    IntMatrix.hstack([h.matrix for h in homs])).cols()
    out = []
    for h in homs:
        block, cols = cols[:h.source.ngens], cols[h.source.ngens:]
        out.append(AbHom(h.source, incl.source,
                         IntMatrix.from_cols(block, incl.source.ngens),
                         check=False))
    return out


def _through(incl: AbHom, target: FgAbGroup, mat: IntMatrix) -> IntMatrix:
    """The matrix x with incl o x = mat, mat's columns read in target."""
    if incl.target.ngens != target.ngens:
        raise ValueError("codomain mismatch")
    x = solve(IntMatrix.hstack([incl.matrix, target.rels]), mat)
    if x is None:
        raise ValueError("map does not factor through the subgroup")
    return x.top(incl.source.ngens)


def _kernel_part(a: IntMatrix, extra: IntMatrix) -> list[tuple[int, ...]]:
    """Generators of {x : a*x in im(extra)}: the nonzero a-parts of a
    basis of ker [a | extra]."""
    parts = [v[:a.ncols] for v in kernel_basis(IntMatrix.hstack([a, extra]))]
    return [v for v in parts if any(v)]


def subgroup_from_generators(
    g: FgAbGroup, vectors: Sequence[Sequence[int]]
) -> tuple[FgAbGroup, AbHom]:
    """Subgroup of g generated by elements with the given generator coords."""
    t = len(vectors)
    kmat = IntMatrix.from_cols(vectors, g.ngens)
    rel_cols = _kernel_part(kmat, g.rels) if t else []
    sub = FgAbGroup(t, IntMatrix.from_cols(rel_cols, t))
    return sub, AbHom(sub, g, kmat, check=False)


class Subquotient:
    """ker(out)/im(inc) at a fixed term of a cochain complex.

    group       the subquotient as an abstract group
    rep_vectors generator-coordinate representatives in the ambient term,
                one per generator of `group`: the columns of the cocycle
                generators, each mapped through `include` when one is
                given; built on the first read
    """

    # rep_vectors stays unset until its first read
    __slots__ = ("group", "rep_vectors", "_cocycles", "_include")

    def __init__(self, group: FgAbGroup, cocycles: IntMatrix,
                 include=None):
        self.group = group
        self._cocycles = cocycles
        self._include = include

    def __getattr__(self, name: str):
        if name != "rep_vectors":
            raise AttributeError(name)
        cols = self._cocycles.cols()
        if self._include is not None:
            cols = [self._include(v) for v in cols]
        self.rep_vectors = cols
        return cols


def cohomology_at(
    at: FgAbGroup,
    incoming: AbHom | None,
    outgoing: AbHom | None,
) -> Subquotient:
    """Cohomology ker(outgoing)/im(incoming) at the group `at`.

    Either map may be None, meaning the zero map.  When both are present
    their composite must vanish; it is checked here.
    """
    if incoming is not None and outgoing is not None:
        if not outgoing.compose(incoming).is_zero_map:
            raise ValueError("not a complex: d o d != 0")
    return _hom_subquotient(at, incoming, outgoing)


def _hom_subquotient(at: FgAbGroup, incoming: AbHom | None,
                     outgoing: AbHom | None) -> Subquotient:
    """ker(outgoing)/im(incoming) at `at`, for maps whose composite is
    known to vanish; either map may be None."""
    return _subquotient(at.rels, incoming and incoming.matrix,
                        outgoing and outgoing.matrix,
                        outgoing and outgoing.target.rels)


def _subquotient(rels: IntMatrix, incoming: IntMatrix | None,
                 outgoing: IntMatrix | None, out_rels: IntMatrix | None,
                 include=None) -> Subquotient:
    """ker(outgoing)/im(incoming) on the term Z^n/im(rels), for matrices
    whose composite vanishes modulo out_rels, the relations of
    outgoing's target; `include` maps the representatives.  The kernel
    generators K span the cocycles; the relations of H are the K-parts
    of a basis of ker [K | incoming | rels], so the kernel itself is
    never presented.  A matrix with no entry is the zero map, as None
    is: where outgoing is zero, K is the identity and H is the term
    modulo im(incoming), with no kernel eliminated."""
    n = rels.nrows
    extra = rels if _is_zero(incoming) else IntMatrix.hstack([incoming, rels])
    if _is_zero(outgoing):
        return Subquotient(FgAbGroup(n, extra), IntMatrix.identity(n),
                           include)
    kmat = IntMatrix.from_cols(_kernel_part(outgoing, out_rels), n)
    rel_cols = _kernel_part(kmat, extra)
    h = FgAbGroup(kmat.ncols, IntMatrix.from_cols(rel_cols, kmat.ncols))
    return Subquotient(h, kmat, include)


def _is_zero(mat: IntMatrix | None) -> bool:
    return mat is None or not any(mat.sparse)


class CochainComplex:
    """Nonnegatively graded complex of presented groups.

    The first `cohomology` call cancels the unit blocks of the complex
    (`reduced`) and keeps the result; every degree is then computed on
    the reduced terms, and its representatives are mapped back."""

    def __init__(self, groups: Sequence[FgAbGroup], diffs: Sequence[AbHom | None]):
        # diffs[n] maps groups[n] -> groups[n+1]; trailing None entries allowed
        self.groups = list(groups)
        self.diffs = list(diffs)
        self._reduced = None
        for n, d in enumerate(self.diffs):
            if d is None:
                continue
            if d.source is not self.groups[n] or d.target is not self.groups[n + 1]:
                raise ValueError(f"differential {n} endpoints disagree")
            if n + 1 < len(self.diffs) and self.diffs[n + 1] is not None:
                if not self.diffs[n + 1].compose(d).is_zero_map:
                    raise ValueError(f"d o d != 0 at degree {n}")

    def reduced(self) -> "ReducedComplex":
        """The complex with its unit blocks cancelled, built once."""
        if self._reduced is None:
            self._reduced = ReducedComplex(self.groups, self.diffs)
        return self._reduced

    def cohomology(self, n: int) -> Subquotient:
        # the reduction needs d o d = 0 as maps for every pair, which
        # the constructor checked
        red = self.reduced()
        incoming = red.diffs[n - 1] if n >= 1 else None
        outgoing = red.diffs[n] if n < len(red.diffs) else None
        return _subquotient(red.rels[n], incoming, outgoing,
                            outgoing and red.rels[n + 1],
                            functools.partial(red.include, n))


def _layout(g: FgAbGroup) -> tuple[list[FgAbGroup], list[int]]:
    """The summands of a term and their offsets: a `DirectSum` gives its
    own, any other group is one summand."""
    if isinstance(g, DirectSum):
        return g.summands, g.offsets
    return [g], [0]


class ReducedComplex:
    """A cochain complex with its unit blocks cancelled, homotopy
    equivalent to the original (Kaczynski-Mrozek-Slusarek).

    A pivot is a block (sigma in C^{n+1}, tau in C^n) of d^n that is
    eps*I, eps = +-1, between summands with equal relation matrices, so
    that it is an isomorphism.  Writing d^n with the rows of sigma first
    and the columns of tau first as [[eps*I, b], [c, e]], cancelling the
    pivot drops sigma and tau, replaces d^n by its Schur complement
    e - c*eps*b, drops the rows of tau from d^{n-1} and the columns of
    sigma from d^{n+1}.  The row drop keeps d o d = 0 only because the
    original composites vanish as maps, which `CochainComplex` checks.
    The inclusion of the reduced term n back into the original sends x
    to (-eps*b*x, x) at each cancelled tau, and to zero at each
    cancelled sigma; it is a chain map, so it carries cocycles to
    cocycles whose classes generate the same cohomology.

    The degrees are reduced from d^0 up, one loop each: it sweeps the
    summands sigma of C^{n+1} in order until a sweep cancels nothing,
    each pivot preferring the sparsest column.  That order decides
    which blocks cancel, and so the kept generators and the coordinates
    of the reduced terms.

    The elimination runs on the integer entries whatever the relations,
    so torsion coefficients cancel the same blocks as Z.  A reduced
    coboundary then takes each entry of a row whose summand has
    relations m*I to its least absolute residue modulo m, the same map:
    fill-in that is a multiple of m leaves no entry for the kernel
    elimination to carry.

    rels   rels[n], the relations of the summands term n keeps, block
           diagonal
    diffs  diffs[n], the matrix of the reduced d^n, or None where d^n
           is None
    """

    __slots__ = ("rels", "diffs", "_kept", "_steps", "_ngens")

    def __init__(self, groups: Sequence[FgAbGroup],
                 diffs: Sequence[AbHom | None]):
        layouts = [_layout(g) for g in groups]
        alive = [[True] * len(parts) for parts, _ in layouts]
        # rows[n]: the sparse rows of d^n, cols[n][c]: the rows of d^n
        # holding column c; both None where d^n is None
        rows = [None if d is None else [dict(r) for r in d.matrix.sparse]
                for d in diffs]
        cols = [None if r is None else _column_index(r, d.source.ngens)
                for r, d in zip(rows, diffs)]
        # steps[n]: (first generator, eps, b) of each tau cancelled from
        # term n, in order
        steps = [[] for _ in groups]
        # d^0 up; in each degree, sweep the summands sigma of C^{n+1}
        # until a sweep cancels nothing
        for n, mat in enumerate(rows):
            if mat is None:
                continue
            index, step = cols[n], steps[n]
            parts, offs = layouts[n + 1]
            tparts, toffs = layouts[n]
            live, tlive = alive[n + 1], alive[n]
            # the summand tau that starts at each generator of C^n
            starts = {o: t for t, (o, tg) in enumerate(zip(toffs, tparts))
                      if tg.ngens}
            # d^{n-1} loses the rows of tau, d^{n+1} the columns of sigma
            below = rows[n - 1] if n >= 1 else None
            above = rows[n + 1] if n + 1 < len(rows) else None
            found = True
            while found:
                found = False
                for s, sg in enumerate(parts):
                    k = sg.ngens
                    if not k or not live[s]:
                        continue
                    # the pivot: a unit block eps*I in the rows of sigma,
                    # preferring the sparsest column
                    r0 = offs[s]
                    best = None
                    for c, x in mat[r0].items():
                        t = starts.get(c)
                        if x not in (1, -1) or t is None or not tlive[t]:
                            continue
                        tg = tparts[t]
                        if tg is not sg and tg.rels != sg.rels:
                            continue
                        if k > 1 and any(
                                {j: y for j, y in mat[r0 + i].items()
                                 if c <= j < c + k} != {c + i: x}
                                for i in range(k)):
                            continue
                        key = (len(index[c]), c)
                        if best is None or key < best[0]:
                            best = (key, t, x)
                    if best is None:
                        continue
                    _, t, eps = best
                    c0 = toffs[t]
                    # e -= c*eps*b, one row operation per row of c
                    for i in range(k):
                        piv = mat[r0 + i]
                        for r in list(index[c0 + i]):
                            if not r0 <= r < r0 + k:
                                _add_row(mat, index, r, piv,
                                         -eps * mat[r][c0 + i])
                    b = []
                    for i in range(k):
                        piv = mat[r0 + i]
                        for c in piv:
                            index[c].discard(r0 + i)
                        del piv[c0 + i]
                        b.append(piv)
                        mat[r0 + i] = {}
                    step.append((c0, eps, b))
                    if below is not None:
                        _drop_rows(below, cols[n - 1], range(c0, c0 + k))
                    if above is not None:
                        _drop_cols(above, cols[n + 1], range(r0, r0 + k))
                    live[s] = tlive[t] = False
                    found = True

        # the reduced terms: the relations of the summands each keeps,
        # its original generators, and mods[n][i], m when kept generator
        # i lies in a summand with relations m*I, else 0; summands are
        # often one shared object
        self.rels, self._kept, mods = [], [], []
        moduli = {}
        for (parts, offs), live in zip(layouts, alive):
            keep = list(itertools.compress(zip(parts, offs), live))
            self.rels.append(IntMatrix.block_diag([sg.rels for sg, _ in keep]))
            kept, km = [], []
            for sg, o in keep:
                m = moduli.get(sg)
                if m is None:
                    m = moduli[sg] = _modulus(sg)
                kept.extend(range(o, o + sg.ngens))
                km.extend([m] * sg.ngens)
            self._kept.append(kept)
            mods.append(km)
        self.diffs = []
        for n, mat in enumerate(rows):
            if mat is None:
                self.diffs.append(None)
                continue
            new = {c: j for j, c in enumerate(self._kept[n])}
            # zero-free rows with keys below len(new), as _of_sparse takes
            self.diffs.append(IntMatrix._of_sparse(tuple(
                _residues({new[c]: x for c, x in mat[r].items()}, m)
                for r, m in zip(self._kept[n + 1], mods[n + 1])), len(new)))
        self._steps = steps
        self._ngens = [g.ngens for g in groups]

    def include(self, n: int, x: Sequence[int]) -> tuple[int, ...]:
        """The original cochain that the reduced cochain x in degree n
        stands for: x at the kept generators, -eps*b*x at each
        cancelled tau (the last cancelled first), zero elsewhere."""
        vec = {c: v for c, v in zip(self._kept[n], x) if v}
        for c0, eps, b in reversed(self._steps[n]):
            for i, bi in enumerate(b):
                y = -eps * sum([v * vec.get(c, 0) for c, v in bi.items()])
                if y:
                    vec[c0 + i] = y
        return tuple([vec.get(c, 0) for c in range(self._ngens[n])])


def _modulus(g: FgAbGroup) -> int:
    """m when the relations of g are m times the identity, m >= 2; else 0."""
    m = g.rels.sparse[0].get(0, 0) if g.ngens else 0
    square = g.rels.ncols == g.ngens
    if m < 2 or not square or \
            any(r != {i: m} for i, r in enumerate(g.rels.sparse)):
        return 0
    return m


def _residues(row: dict, m: int) -> dict:
    """The row with each entry taken to its least absolute residue
    modulo m, and zeros dropped; the row itself when m is 0."""
    if not m:
        return row
    out = {}
    for c, x in row.items():
        x %= m
        if 2 * x > m:
            x -= m
        if x:
            out[c] = x
    return out


def _drop_rows(rows: list[dict], index: list[set], gone: Iterable[int]) -> None:
    for r in gone:
        for c in rows[r]:
            index[c].discard(r)
        rows[r] = {}


def _drop_cols(rows: list[dict], index: list[set], gone: Iterable[int]) -> None:
    for c in gone:
        for r in index[c]:
            del rows[r][c]
        index[c] = set()


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


def direct_sum(groups: Sequence[FgAbGroup]) -> DirectSum:
    """Direct sum of the groups; its generator columns are charged to
    the column budget as it is built."""
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
    return DirectSum(groups, offsets, pos)


class DirectSum(FgAbGroup):
    """A direct sum that keeps its layout: summand j occupies the
    generators offsets[j] .. offsets[j] + summands[j].ngens - 1.
    Built by `direct_sum`.  Its relations, the block diagonal of the
    summands' relations, are built on their first read."""

    __slots__ = ("summands", "offsets")

    def __init__(self, summands: Sequence[FgAbGroup], offsets: list[int],
                 ngens: int):
        # rels stays unset, so FgAbGroup.__init__ has nothing to check
        self.ngens = ngens
        self.summands = list(summands)
        self.offsets = offsets

    def __getattr__(self, name: str):
        if name != "rels":
            return super().__getattr__(name)
        self.rels = IntMatrix.block_diag([g.rels for g in self.summands])
        return self.rels

    def span(self, j: int) -> slice:
        """The generator coordinates of summand j."""
        return slice(self.offsets[j], self.offsets[j] + self.summands[j].ngens)


def assemble_hom(
    source: DirectSum,
    target: DirectSum,
    blocks: Iterable[tuple[tuple[int, int], IntMatrix]],
) -> AbHom:
    """Hom between direct sums from sparse ((target_i, source_j), block)
    pairs; blocks that share a key are added.  Each block's shape is
    checked as `IntMatrix.from_blocks` draws it, so no list of placed
    blocks is built."""
    rows, cols = target.summands, source.summands
    roffs, coffs = target.offsets, source.offsets

    def placed():
        for (ti, sj), b in blocks:
            if b.nrows != rows[ti].ngens or b.ncols != cols[sj].ngens:
                raise ValueError("block shape mismatch")
            yield roffs[ti], coffs[sj], b

    mat = IntMatrix.from_blocks(target.ngens, source.ngens, placed())
    return AbHom(source, target, mat, check=False)


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
