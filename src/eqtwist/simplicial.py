"""Simplicial sets with finitely many nondegenerate simplices.

A complex stores its nondegenerate simplices and the faces of each,
with every face written in Eilenberg-Zilber normal form: a strictly
decreasing word of degeneracies applied to a nondegenerate base.  All
operators act on such references, faces being pushed through the word
by the usual commutation rules, so no degenerate simplex is ever
stored.

Complexes are truncated at a stated dimension.  Truncation bounds the
nondegenerate cells; degenerate simplices above it still make sense as
references and arise during intermediate computations, but products
and twisted products are materialized only up to their own stated
truncation.

References print as e.g. "s1 s0 v", the word left to right from the
outermost degeneracy.  Base identifiers must not begin with a token of
the form s<digits>.
"""

from __future__ import annotations

import itertools
import re
from typing import Callable, Iterable, NamedTuple, Sequence

from .reader import CELL_NAMES, FACE_REFS, NATURAL, OBJECT, entries, expect


class SimplexRef(NamedTuple):
    word: tuple[int, ...]
    base: str


_S_TOKEN = re.compile(r"s(\d+)$")
# a dimension key of a complex file: a nonnegative integer in decimal
_DIMENSION = re.compile(r"0|[1-9][0-9]*")


def fmt_ref(ref: SimplexRef) -> str:
    return " ".join([f"s{j}" for j in ref.word] + [ref.base])


def parse_ref(text: str) -> SimplexRef:
    tokens = text.split()
    word = []
    k = 0
    while k < len(tokens):
        m = _S_TOKEN.match(tokens[k])
        if not m:
            break
        word.append(int(m.group(1)))
        k += 1
    if k == len(tokens):
        raise ValueError(f"reference {text!r} has no base simplex")
    return SimplexRef(tuple(word), " ".join(tokens[k:]))


def nondeg(base: str) -> SimplexRef:
    return SimplexRef((), base)


def insert_degeneracy(word: tuple[int, ...], i: int) -> tuple[int, ...]:
    """Normal form of s_i applied on top of an s-word (s_i s_j = s_{j+1} s_i
    for i <= j)."""
    return tuple(sorted([w + 1 if w >= i else w for w in word] + [i],
                        reverse=True))


def word_is_valid(word: Sequence[int], base_dim: int) -> bool:
    if list(word) != sorted(set(word), reverse=True):
        return False
    return all(w <= base_dim + k for k, w in enumerate(reversed(word)))


def valid_words(length: int, base_dim: int) -> Iterable[tuple[int, ...]]:
    """All degeneracy words of given length applicable to a base_dim simplex."""
    if length == 0:
        yield ()
        return
    for combo in itertools.combinations(range(base_dim + length), length):
        if all(combo[k] <= base_dim + k for k in range(length)):
            yield tuple(reversed(combo))


class FiniteSimplicialSet:
    """Truncated simplicial set presented by nondegenerate cells and faces.

    cells       dict dim -> ordered list of cell identifiers
    face_table  dict id -> tuple of references, one per face operator
    """

    def __init__(self, truncation: int, cells: dict[int, list[str]],
                 face_table: dict[str, tuple[SimplexRef, ...]],
                 check: bool = True):
        self.truncation = truncation
        self.cells = {q: list(cells.get(q, [])) for q in range(truncation + 1)}
        self.face_table = dict(face_table)
        self._dim = {}
        for q, ids in self.cells.items():
            for cid in ids:
                if cid in self._dim:
                    raise ValueError(f"duplicate cell identifier {cid!r}")
                self._dim[cid] = q
        if check:
            self.validate()

    # structure ------------------------------------------------------

    @property
    def dimension(self) -> int:
        """The highest dimension holding a cell; 0 when there is none."""
        return max((q for q, ids in self.cells.items() if ids), default=0)

    def dim_of(self, cid: str) -> int:
        return self._dim[cid]

    def dim_of_ref(self, ref: SimplexRef) -> int:
        return len(ref.word) + self._dim[ref.base]

    def has_cell(self, cid: str) -> bool:
        return cid in self._dim

    def base_face(self, i: int, cid: str) -> SimplexRef:
        return self.face_table[cid][i]

    def face(self, i: int, ref: SimplexRef) -> SimplexRef:
        q = self.dim_of_ref(ref)
        if not 0 <= i <= q or q == 0:
            raise ValueError(f"no face {i} in dimension {q}")
        emitted = []
        fi = i
        for pos, w in enumerate(ref.word):
            if fi < w:
                emitted.append(w - 1)
            elif fi == w or fi == w + 1:
                return SimplexRef(tuple(emitted) + ref.word[pos + 1:], ref.base)
            else:
                emitted.append(w)
                fi -= 1
        out = self.base_face(fi, ref.base)
        for j in reversed(emitted):
            out = SimplexRef(insert_degeneracy(out.word, j), out.base)
        return out

    def degeneracy(self, i: int, ref: SimplexRef) -> SimplexRef:
        q = self.dim_of_ref(ref)
        if not 0 <= i <= q:
            raise ValueError(f"no degeneracy {i} in dimension {q}")
        return SimplexRef(insert_degeneracy(ref.word, i), ref.base)

    def all_refs(self, q: int) -> list[SimplexRef]:
        """Every simplex of dimension q, nondegenerate cells first."""
        out = []
        for length in range(q + 1):
            d = q - length
            if d > self.truncation:
                continue
            for cid in self.cells.get(d, []):
                for word in valid_words(length, d):
                    out.append(SimplexRef(word, cid))
        return out

    # consistency ----------------------------------------------------

    def validate(self) -> None:
        for q in range(1, self.truncation + 1):
            for cid in self.cells[q]:
                if cid not in self.face_table:
                    raise ValueError(f"cell {cid!r} has no face list")
                faces = self.face_table[cid]
                if len(faces) != q + 1:
                    raise ValueError(f"cell {cid!r} needs {q + 1} faces")
                for i, ref in enumerate(faces):
                    if ref.base not in self._dim:
                        raise ValueError(
                            f"face {i} of {cid!r} has unknown base {ref.base!r}")
                    if not word_is_valid(ref.word, self._dim[ref.base]):
                        raise ValueError(f"face {i} of {cid!r} has bad word")
                    if self.dim_of_ref(ref) != q - 1:
                        raise ValueError(f"face {i} of {cid!r} has wrong dim")
        # face-face identities on generators force them everywhere
        for q in range(2, self.truncation + 1):
            for cid in self.cells[q]:
                x = nondeg(cid)
                for j in range(1, q + 1):
                    for i in range(j):
                        lhs = self.face(i, self.face(j, x))
                        rhs = self.face(j - 1, self.face(i, x))
                        if lhs != rhs:
                            raise ValueError(
                                f"d{i} d{j} != d{j - 1} d{i} at {cid!r}")

    # serialization --------------------------------------------------

    def to_json(self) -> dict:
        return {
            "truncation": self.truncation,
            "simplices": {str(q): list(ids) for q, ids in self.cells.items()},
            "faces": {cid: [fmt_ref(r) for r in refs]
                      for cid, refs in sorted(self.face_table.items())},
        }

    @classmethod
    def from_json(cls, data: dict) -> "FiniteSimplicialSet":
        """The complex a file describes.  A dimension not written as a
        nonnegative integer, cells above the truncation and face lists of
        vertices or of unlisted cells are refused by name."""
        trunc = expect(data, "truncation", NATURAL, "complex")
        cells = {}
        for key, ids in entries(expect(data, "simplices", OBJECT, "complex"),
                                CELL_NAMES, "complex 'simplices'"):
            if not _DIMENSION.fullmatch(key):
                raise ValueError(f"complex 'simplices' key {key!r} is not "
                                 f"a dimension")
            if ids and int(key) > trunc:
                raise ValueError(f"complex 'simplices' key {key!r} lists "
                                 f"cells above the truncation {trunc}")
            cells[int(key)] = ids
        higher = {cid for q, ids in cells.items() if q >= 1 for cid in ids}
        faces = {}
        for cid, refs in entries(expect(data, "faces", OBJECT, "complex", {}),
                                 FACE_REFS, "complex 'faces'"):
            if cid not in higher:
                raise ValueError(f"complex 'faces' key {cid!r} names no "
                                 f"cell of dimension >= 1")
            faces[cid] = tuple(parse_ref(t) for t in refs)
        return cls(trunc, cells, faces)


def standard_simplex(n: int, truncation: int | None = None) -> FiniteSimplicialSet:
    """The n-simplex; cells are vertex subsets written like "0-1-3"."""
    trunc = n if truncation is None else truncation
    cells: dict[int, list[str]] = {q: [] for q in range(trunc + 1)}
    faces = {}
    for d in range(min(n, trunc) + 1):
        for subset in itertools.combinations(range(n + 1), d + 1):
            cid = "-".join(str(v) for v in subset)
            cells[d].append(cid)
            if d > 0:
                faces[cid] = tuple(
                    nondeg("-".join(str(v) for k, v in enumerate(subset)
                                    if k != i))
                    for i in range(d + 1))
    return FiniteSimplicialSet(trunc, cells, faces)


class SimplicialMap:
    """Map of simplicial sets, recorded on nondegenerate cells."""

    def __init__(self, source: FiniteSimplicialSet, target: FiniteSimplicialSet,
                 values: dict[str, SimplexRef], check: bool = True):
        self.source = source
        self.target = target
        self.values = dict(values)
        if check:
            self.validate()

    def apply(self, ref: SimplexRef) -> SimplexRef:
        out = self.values[ref.base]
        for j in reversed(ref.word):
            out = self.target.degeneracy(j, out)
        return out

    def validate(self) -> None:
        for q in range(self.source.truncation + 1):
            for cid in self.source.cells[q]:
                if cid not in self.values:
                    raise ValueError(f"no value on cell {cid!r}")
                if self.target.dim_of_ref(self.values[cid]) != q:
                    raise ValueError(f"value on {cid!r} has wrong dimension")
        for q in range(1, self.source.truncation + 1):
            for cid in self.source.cells[q]:
                x = nondeg(cid)
                for i in range(q + 1):
                    if self.apply(self.source.face(i, x)) != \
                            self.target.face(i, self.apply(x)):
                        raise ValueError(f"map fails d{i} at {cid!r}")

    def compose(self, first: "SimplicialMap") -> "SimplicialMap":
        """self o first."""
        vals = {cid: self.apply(first.values[cid]) for cid in first.values}
        return SimplicialMap(first.source, self.target, vals, check=False)

    @classmethod
    def identity(cls, fs: FiniteSimplicialSet) -> "SimplicialMap":
        vals = {cid: nondeg(cid) for ids in fs.cells.values() for cid in ids}
        return cls(fs, fs, vals, check=False)


# products and twisted products -------------------------------------

def _strip(word: list[int], j: int) -> list[int]:
    out = []
    for w in word:
        if w == j:
            continue
        out.append(w - 1 if w > j else w)
    return out


def pair_normalize(rx: SimplexRef, ry: SimplexRef) \
        -> tuple[tuple[int, ...], SimplexRef, SimplexRef]:
    """Extract the shared degeneracies of a pair of references.

    Returns (word, rx', ry') with rx', ry' having disjoint words; the
    extracted word is the degeneracy word of the pair simplex.
    """
    wx, wy = list(rx.word), list(ry.word)
    outer: list[int] = []
    while True:
        common = set(wx) & set(wy)
        if not common:
            break
        j = max(common)
        assert not outer or j < outer[-1]
        wx = _strip(wx, j)
        wy = _strip(wy, j)
        outer.append(j)
    return (tuple(outer), SimplexRef(tuple(wx), rx.base),
            SimplexRef(tuple(wy), ry.base))


def pair_id(rx: SimplexRef, ry: SimplexRef) -> str:
    return f"({fmt_ref(rx)})x({fmt_ref(ry)})"


class PairedComplex:
    """Product of two complexes, possibly twisted along the second factor.

    Cells of the total complex are pairs (fiber reference, base
    reference) with disjoint degeneracy words.  With a twist, the zero
    face acts on the fiber part through the supplied action before the
    componentwise face.
    """

    def __init__(self, left: FiniteSimplicialSet, right: FiniteSimplicialSet,
                 truncation: int,
                 twist: Callable[[SimplexRef], object] | None = None,
                 act: Callable[[object, SimplexRef], SimplexRef] | None = None):
        if (twist is None) != (act is None):
            raise ValueError("twist and act must be supplied together")
        self.left = left
        self.right = right
        self.twist = twist
        self.act = act
        cells: dict[int, list[str]] = {}
        self.pair_of: dict[str, tuple[SimplexRef, SimplexRef]] = {}
        for q in range(truncation + 1):
            ids = []
            for rx in left.all_refs(q):
                for ry in right.all_refs(q):
                    if set(rx.word) & set(ry.word):
                        continue
                    cid = pair_id(rx, ry)
                    ids.append(cid)
                    self.pair_of[cid] = (rx, ry)
            cells[q] = ids
        faces = {}
        for q in range(1, truncation + 1):
            for cid in cells[q]:
                rx, ry = self.pair_of[cid]
                row = []
                for i in range(q + 1):
                    fx = left.face(i, rx)
                    if i == 0 and twist is not None:
                        fx = act(twist(ry), fx)
                    row.append(self._pack(fx, right.face(i, ry)))
                faces[cid] = tuple(row)
        self.complex = FiniteSimplicialSet(truncation, cells, faces,
                                           check=False)

    def _pack(self, rx: SimplexRef, ry: SimplexRef) -> SimplexRef:
        word, nx, ny = pair_normalize(rx, ry)
        cid = pair_id(nx, ny)
        if cid not in self.pair_of:
            raise ValueError(f"pair {cid!r} falls outside the truncation")
        return SimplexRef(word, cid)

    def ref_of_pair(self, rx: SimplexRef, ry: SimplexRef) -> SimplexRef:
        return self._pack(rx, ry)


def cylinder(x: FiniteSimplicialSet, truncation: int | None = None) \
        -> PairedComplex:
    """x times the interval.

    The default truncation matches x, which is the right home for
    homotopies between maps out of x into targets of the same
    truncation.
    """
    trunc = x.truncation if truncation is None else truncation
    interval = standard_simplex(1, truncation=max(trunc, 1))
    return PairedComplex(x, interval, trunc)


# materialization of abstract levelwise data ------------------------

class Materialized:
    """A complex built from explicit element sets with face/deg callables."""

    __slots__ = ("complex", "el_of_id", "_ref")

    def __init__(self, complex: FiniteSimplicialSet, el_of_id: dict,
                 ref_table: dict):
        self.complex = complex
        self.el_of_id = el_of_id
        self._ref = ref_table

    def ref_of(self, q: int, el) -> SimplexRef:
        return self._ref[(q, el)]


def materialize_complex(truncation: int, elements: Callable, face: Callable,
                        deg: Callable, id_of: Callable) -> Materialized:
    """Build a complex from levelwise element data.

    elements(q) lists the hashable elements in dimension q; face(i, q, el)
    and deg(i, q, el) are the operators; id_of(q, el) names the cells.
    Degenerate elements are detected by applying every degeneracy one
    level down, and clashing normal forms are rejected.
    """
    ref_table: dict = {}
    cells: dict[int, list[str]] = {}
    el_of_id: dict = {}
    level_els: dict[int, list] = {}
    for q in range(truncation + 1):
        level_els[q] = list(elements(q))
        degenerate: dict = {}
        if q >= 1:
            for el in level_els[q - 1]:
                below = ref_table[(q - 1, el)]
                for i in range(q):
                    up = deg(i, q - 1, el)
                    ref = SimplexRef(insert_degeneracy(below.word, i),
                                     below.base)
                    prev = degenerate.get(up)
                    if prev is not None and prev != ref:
                        raise ValueError(
                            f"degeneracy normal forms clash in dim {q}")
                    degenerate[up] = ref
        ids = []
        for el in level_els[q]:
            if el in degenerate:
                ref_table[(q, el)] = degenerate[el]
            else:
                cid = id_of(q, el)
                if cid in el_of_id:
                    raise ValueError(f"duplicate cell identifier {cid!r}")
                ids.append(cid)
                el_of_id[cid] = el
                ref_table[(q, el)] = nondeg(cid)
        for u in degenerate:
            if (q, u) not in ref_table:
                # a degeneracy produced an element not listed at this level
                raise ValueError(f"element missing from dim {q}: {u!r}")
        cells[q] = ids
    faces = {}
    for q in range(1, truncation + 1):
        for cid in cells[q]:
            el = el_of_id[cid]
            faces[cid] = tuple(ref_table[(q - 1, face(i, q, el))]
                               for i in range(q + 1))
    fs = FiniteSimplicialSet(truncation, cells, faces)
    return Materialized(fs, el_of_id, ref_table)
